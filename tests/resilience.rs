//! Resilience torture tests: seeded corpus mutation against the decoders
//! and both live server paths, plus retry-policy acceptance.
//!
//! The corpus is derived from golden LEAD `Verify` envelopes (several
//! model sizes, both encodings); each message is then truncated and/or
//! corrupted byte-wise under a seeded RNG and driven through the same
//! code paths a hostile network would hit. The invariant everywhere is
//! *zero panics*: every outcome is either a successful decode (some
//! mutations are benign) or a structured error / SOAP fault.
//!
//! Knobs (see EXPERIMENTS.md):
//! * `RESILIENCE_SEED` — override the corpus/fault seed (default below).
//! * `RESILIENCE_MUTATIONS` — mutations per golden message (default 80).

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bxsoap::{lead_dataset, register_verify, verify_request_envelope};
use rand::{rngs::StdRng, Rng, SeedableRng};
use soap::{
    BxsaEncoding, EncodingPolicy, FaultingBinding, HttpBinding, HttpSoapServer, SoapEngine,
    SoapEnvelope, SoapError, TcpBinding, TcpSoapServer, XmlEncoding,
};
use transport::faulty::{FaultInjector, FaultProfile};
use transport::{FramedStream, RetryPolicy, TcpServerConfig};

const DEFAULT_SEED: u64 = 0x5eed_0b5a_11ce_0001;

fn seed() -> u64 {
    std::env::var("RESILIENCE_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_SEED)
}

fn mutations_per_golden() -> usize {
    std::env::var("RESILIENCE_MUTATIONS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(80)
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Wire {
    Bxsa,
    Xml,
}

/// Golden messages: the LEAD Verify request at several model sizes, in
/// both encodings.
fn golden_corpus() -> Vec<(Wire, Vec<u8>)> {
    let mut corpus = Vec::new();
    for size in [1usize, 10, 100, 1000] {
        let (index, values) = lead_dataset(size, seed());
        let doc = verify_request_envelope(&index, &values).to_document();
        corpus.push((Wire::Bxsa, BxsaEncoding::default().encode(&doc).unwrap()));
        corpus.push((Wire::Xml, XmlEncoding::default().encode(&doc).unwrap()));
    }
    corpus
}

/// Mutate one golden message: truncate, corrupt 1–4 bytes, or both.
fn mutate(rng: &mut StdRng, golden: &[u8]) -> Vec<u8> {
    let mut msg = golden.to_vec();
    let kind = rng.random_range(0..3u32);
    if kind != 1 && !msg.is_empty() {
        msg.truncate(rng.random_range(0..msg.len()));
    }
    if kind != 0 && !msg.is_empty() {
        for _ in 0..rng.random_range(1..5u32) {
            let at = rng.random_range(0..msg.len());
            msg[at] ^= rng.random_range(1u16..256) as u8;
        }
    }
    msg
}

/// Drive one (possibly mutated) message through the matching decoder and,
/// when decoding succeeds, on through envelope extraction — the full
/// server-side parse path. Returns whether the message was accepted.
fn decode_one(wire: Wire, msg: &[u8]) -> bool {
    let doc = match wire {
        Wire::Bxsa => match bxsa::decode(msg) {
            Ok(doc) => doc,
            Err(_) => return false, // structured rejection: the point
        },
        Wire::Xml => {
            let Ok(text) = std::str::from_utf8(msg) else {
                return false;
            };
            match xmltext::parse(text) {
                Ok(doc) => doc,
                Err(_) => return false,
            }
        }
    };
    SoapEnvelope::from_document(&doc).is_ok()
}

#[test]
fn decoders_survive_mutated_corpus() {
    let corpus = golden_corpus();
    let mut rng = StdRng::seed_from_u64(seed() ^ 0xDEC0DE);
    let mut driven = 0usize;
    let mut rejected = 0usize;
    for (wire, golden) in &corpus {
        // The unmutated golden must decode — the corpus is real.
        assert!(decode_one(*wire, golden), "golden message must decode");
        // Every prefix truncation of the small messages, plus seeded
        // random mutations of everything.
        if golden.len() <= 256 {
            for cut in 0..golden.len() {
                if !decode_one(*wire, &golden[..cut]) {
                    rejected += 1;
                }
                driven += 1;
            }
        }
        for _ in 0..mutations_per_golden() {
            let msg = mutate(&mut rng, golden);
            if !decode_one(*wire, &msg) {
                rejected += 1;
            }
            driven += 1;
        }
        // Cross-feeding: bytes of one encoding into the other decoder.
        let other = if *wire == Wire::Bxsa { Wire::Xml } else { Wire::Bxsa };
        if !decode_one(other, golden) {
            rejected += 1;
        }
        driven += 1;
    }
    assert!(driven >= 500, "corpus too small: {driven} messages");
    // Mutation overwhelmingly produces invalid messages; if most were
    // accepted the decoders are not actually validating.
    assert!(
        rejected * 2 > driven,
        "only {rejected}/{driven} mutants rejected"
    );
}

#[test]
fn live_servers_survive_mutated_corpus() {
    let mut registry = soap::ServiceRegistry::new();
    register_verify(&mut registry);
    let registry = Arc::new(registry);

    let tcp = TcpSoapServer::bind_service_with(
        "127.0.0.1:0",
        TcpServerConfig {
            read_timeout: Some(Duration::from_secs(2)),
            write_timeout: Some(Duration::from_secs(2)),
            ..TcpServerConfig::default()
        },
        soap::SoapService::new(BxsaEncoding::default(), Arc::clone(&registry)),
    )
    .unwrap();
    let http = HttpSoapServer::bind(
        "127.0.0.1:0",
        "/soap",
        XmlEncoding::default(),
        Arc::clone(&registry),
    )
    .unwrap();
    let tcp_addr = tcp.local_addr().to_string();
    let http_addr = http.local_addr().to_string();

    let corpus = golden_corpus();
    let mut rng = StdRng::seed_from_u64(seed() ^ 0x5E4E4);
    for (wire, golden) in &corpus {
        for _ in 0..8 {
            let msg = mutate(&mut rng, golden);
            match wire {
                Wire::Bxsa => {
                    // Well-framed garbage: the service must answer every
                    // message with *something* (a fault envelope counts).
                    let mut client = FramedStream::connect(&tcp_addr).unwrap();
                    client.send(&msg).unwrap();
                    let reply = client.recv().expect("server must answer garbage");
                    assert!(!reply.is_empty());
                }
                Wire::Xml => {
                    let resp = transport::http_post(&http_addr, "/soap", "text/xml", msg)
                        .expect("server must answer garbage");
                    assert!(resp.status == 200 || resp.status == 500, "{}", resp.status);
                }
            }
        }
    }

    // Raw frame-level abuse on the TCP path: half-written frames and
    // oversize declarations, straight onto the socket.
    use std::io::Write;
    for declared in [64u32, 4096, u32::MAX] {
        let mut raw = std::net::TcpStream::connect(&tcp_addr).unwrap();
        let _ = raw.write_all(&declared.to_be_bytes());
        let _ = raw.write_all(&[0xAA; 16]);
        drop(raw);
    }

    // After all of that, both listeners still serve a clean request.
    let (index, values) = lead_dataset(50, seed());
    let request = verify_request_envelope(&index, &values);
    let mut tcp_engine = SoapEngine::new(BxsaEncoding::default(), TcpBinding::new(&tcp_addr));
    let resp = tcp_engine.call_with(request.clone(), &soap::CallOptions::new()).expect("TCP listener alive");
    assert_eq!(
        resp.body_element().unwrap().child_value("ok"),
        Some(&bxdm::AtomicValue::Bool(true))
    );
    let mut http_engine = SoapEngine::new(
        XmlEncoding::default(),
        HttpBinding::new(&http_addr, "/soap"),
    );
    let resp = http_engine.call_with(request, &soap::CallOptions::new()).expect("HTTP listener alive");
    assert_eq!(
        resp.body_element().unwrap().child_value("ok"),
        Some(&bxdm::AtomicValue::Bool(true))
    );

    tcp.shutdown();
    http.shutdown();
}

#[test]
fn engine_retries_through_flaky_connects_against_live_server() {
    let mut registry = soap::ServiceRegistry::new();
    register_verify(&mut registry);
    let server = TcpSoapServer::bind(
        "127.0.0.1:0",
        BxsaEncoding::default(),
        Arc::new(registry),
    )
    .unwrap();

    // 30% of connects refused by the injector; established exchanges are
    // clean, so a retrying client must always get through eventually.
    let injector = FaultInjector::new(FaultProfile::flaky_connect(seed(), 0.3)).shared();
    let mut engine = SoapEngine::new(
        BxsaEncoding::default(),
        FaultingBinding::new(
            TcpBinding::new(&server.local_addr().to_string()),
            Arc::clone(&injector),
        ),
    )
    .with_retry(RetryPolicy::no_delay(10));

    let (index, values) = lead_dataset(20, seed());
    let request = verify_request_envelope(&index, &values);
    let mut retried = 0u32;
    for _ in 0..40 {
        let resp = engine.call_with(request.clone(), &soap::CallOptions::new()).expect("retry must recover");
        assert_eq!(
            resp.body_element().unwrap().child_value("ok"),
            Some(&bxdm::AtomicValue::Bool(true))
        );
        if engine.last_call_attempts() > 1 {
            retried += 1;
        }
    }
    assert!(retried > 0, "30% refusals must force some retries");
    assert!(injector.lock().connects_refused() > 0);
    server.shutdown();
}

#[test]
fn non_idempotent_calls_are_never_replayed() {
    // The server counts how many times the operation actually runs —
    // ground truth for "was this request replayed".
    let hits = Arc::new(AtomicU32::new(0));
    let hits_in = Arc::clone(&hits);
    let registry = Arc::new(soap::ServiceRegistry::new().with_operation(
        "Increment",
        move |_req| {
            hits_in.fetch_add(1, Ordering::SeqCst);
            Ok(SoapEnvelope::with_body(bxdm::Element::component(
                "IncrementResponse",
            )))
        },
    ));
    let server =
        TcpSoapServer::bind("127.0.0.1:0", BxsaEncoding::default(), registry).unwrap();

    // Every connect refused: any attempt that *would* reach the server
    // is injector-blocked, so attempt counting is exact.
    let injector = FaultInjector::new(FaultProfile::flaky_connect(seed(), 1.0)).shared();
    let mut engine = SoapEngine::new(
        BxsaEncoding::default(),
        FaultingBinding::new(
            TcpBinding::new(&server.local_addr().to_string()),
            injector,
        ),
    )
    .with_retry(RetryPolicy::no_delay(10));

    let request = SoapEnvelope::with_body(bxdm::Element::component("Increment"));
    let err = engine.call_with(request.clone(), &soap::CallOptions::new().non_idempotent()).unwrap_err();
    assert!(matches!(err, SoapError::Transport(_)));
    assert_eq!(engine.last_call_attempts(), 1, "must not be replayed");

    // The same failure through the idempotent path burns every attempt —
    // the contrast proves the non-idempotent guard is what held it to 1.
    let err = engine.call_with(request, &soap::CallOptions::new()).unwrap_err();
    assert!(matches!(err, SoapError::Transport(_)));
    assert_eq!(engine.last_call_attempts(), 10);
    assert_eq!(hits.load(Ordering::SeqCst), 0);
    server.shutdown();
}

#[test]
fn retry_honors_503_with_retry_after_from_live_http_server() {
    // A server that is "overloaded" for the first two requests, then
    // healthy: the classic rolling-restart shape Retry-After exists for.
    let mut registry = soap::ServiceRegistry::new();
    register_verify(&mut registry);
    let service = soap::SoapService::new(XmlEncoding::default(), Arc::new(registry));
    let busy_until = AtomicU32::new(2);
    let server = transport::ServerBuilder::bind("127.0.0.1:0")
        .serve_http(
            soap::DecodeScratch::default,
            move |scratch, _head, body, reply, _ctl| {
                if busy_until
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                    .is_ok()
                {
                    reply.respond(transport::HttpResponse {
                        status: 503,
                        reason: "Service Unavailable".into(),
                        headers: vec![("Retry-After".into(), "0".into())],
                        body: b"draining".to_vec(),
                    });
                    return;
                }
                let mut out = Vec::new();
                let is_fault = service.handle(scratch, body, &mut out).is_fault;
                reply.respond(if is_fault {
                    transport::HttpResponse::server_error(out)
                } else {
                    transport::HttpResponse::ok("text/xml", out)
                });
            },
        )
        .unwrap();

    let mut engine = SoapEngine::new(
        XmlEncoding::default(),
        HttpBinding::new(&server.local_addr().to_string(), "/soap"),
    )
    .with_retry(RetryPolicy::no_delay(5));
    let (index, values) = lead_dataset(5, seed());
    let resp = engine
        .call_with(verify_request_envelope(&index, &values), &soap::CallOptions::new())
        .expect("503s must be retried through");
    assert_eq!(
        resp.body_element().unwrap().child_value("ok"),
        Some(&bxdm::AtomicValue::Bool(true))
    );
    assert_eq!(engine.last_call_attempts(), 3, "two 503s then success");
    server.shutdown();
}

#[test]
fn hostile_content_length_is_rejected_with_413_before_allocation() {
    // An attacker-controlled Content-Length must not drive allocation:
    // anything past the frame cap is refused up front with 413, and a
    // within-cap declaration only earns memory as bytes actually arrive.
    let mut registry = soap::ServiceRegistry::new();
    register_verify(&mut registry);
    let server = HttpSoapServer::bind(
        "127.0.0.1:0",
        "/soap",
        XmlEncoding::default(),
        Arc::new(registry),
    )
    .unwrap();
    let addr = server.local_addr().to_string();

    use std::io::{BufReader, Write};
    for declared in [
        (transport::MAX_FRAME_LEN as u64) + 1,
        4 << 30, // 4 GiB: a length that must never be eagerly reserved
    ] {
        let mut raw = std::net::TcpStream::connect(&addr).unwrap();
        raw.write_all(
            format!("POST /soap HTTP/1.1\r\nContent-Length: {declared}\r\n\r\n").as_bytes(),
        )
        .unwrap();
        // No body follows: if the server tried to allocate `declared`
        // bytes up front this read would be preceded by an OOM, and if
        // it tried to read them it would hang instead of answering.
        let resp = transport::HttpResponse::read_from(&mut BufReader::new(raw)).unwrap();
        assert_eq!(resp.status, 413, "declared {declared}");
    }

    // The listener shrugged it off and still serves real traffic.
    let (index, values) = lead_dataset(10, seed());
    let mut engine = SoapEngine::new(
        XmlEncoding::default(),
        HttpBinding::new(&addr, "/soap"),
    );
    let resp = engine
        .call_with(verify_request_envelope(&index, &values), &soap::CallOptions::new())
        .expect("listener alive after hostile headers");
    assert_eq!(
        resp.body_element().unwrap().child_value("ok"),
        Some(&bxdm::AtomicValue::Bool(true))
    );
    server.shutdown();
}

#[test]
fn retry_after_hint_stretches_the_backoff_sleep() {
    // Regression for the backpressure blind spot: the engine used to
    // sleep only its jittered backoff (milliseconds here) and hammer a
    // server that had explicitly said "Retry-After: 1". The second
    // attempt must now wait out the full hinted second.
    let mut registry = soap::ServiceRegistry::new();
    register_verify(&mut registry);
    let service = soap::SoapService::new(XmlEncoding::default(), Arc::new(registry));
    let busy = AtomicU32::new(1);
    let server = transport::ServerBuilder::bind("127.0.0.1:0")
        .serve_http(
            soap::DecodeScratch::default,
            move |scratch, _head, body, reply, _ctl| {
                if busy
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                    .is_ok()
                {
                    reply.respond(transport::HttpResponse {
                        status: 503,
                        reason: "Service Unavailable".into(),
                        headers: vec![("Retry-After".into(), "1".into())],
                        body: b"throttled".to_vec(),
                    });
                    return;
                }
                let mut out = Vec::new();
                let is_fault = service.handle(scratch, body, &mut out).is_fault;
                reply.respond(if is_fault {
                    transport::HttpResponse::server_error(out)
                } else {
                    transport::HttpResponse::ok("text/xml", out)
                });
            },
        )
        .unwrap();

    // Tiny backoff, roomy cap: any wait ≥ 1 s can only come from the
    // server's hint, not from the jitter schedule.
    let policy = RetryPolicy {
        max_attempts: 3,
        base: Duration::from_millis(1),
        cap: Duration::from_secs(2),
        total_budget: Duration::from_secs(10),
        seed: seed(),
    };
    let mut engine = SoapEngine::new(
        XmlEncoding::default(),
        HttpBinding::new(&server.local_addr().to_string(), "/soap"),
    )
    .with_retry(policy);
    let (index, values) = lead_dataset(5, seed());
    let started = std::time::Instant::now();
    let resp = engine
        .call_with(verify_request_envelope(&index, &values), &soap::CallOptions::new())
        .expect("one 503 then success");
    let elapsed = started.elapsed();
    assert_eq!(
        resp.body_element().unwrap().child_value("ok"),
        Some(&bxdm::AtomicValue::Bool(true))
    );
    assert_eq!(engine.last_call_attempts(), 2, "one 503 then success");
    assert!(
        elapsed >= Duration::from_secs(1),
        "second attempt must wait out the Retry-After hint, waited {elapsed:?}"
    );
    server.shutdown();
}

#[test]
fn live_server_survives_fault_injection_on_its_own_sockets() {
    // The server-side mirror of FaultingBinding: every accepted stream
    // is wrapped in a FaultingTransport, so the server's *own* read and
    // write paths — partial writes included — take injected resets,
    // stalls, truncations, and corruption under a live accept loop.
    let mut registry = soap::ServiceRegistry::new();
    register_verify(&mut registry);
    let injector = FaultInjector::new(FaultProfile {
        drop: 0.08,
        stall: 0.05,
        truncate: 0.12,
        corrupt: 0.12,
        ..FaultProfile::clean(seed())
    })
    .shared();
    let server = TcpSoapServer::bind_faulty(
        "127.0.0.1:0",
        TcpServerConfig {
            read_timeout: Some(Duration::from_millis(500)),
            write_timeout: Some(Duration::from_millis(500)),
            ..TcpServerConfig::default()
        },
        Arc::clone(&injector),
        soap::SoapService::new(BxsaEncoding::default(), Arc::new(registry)),
    )
    .unwrap();
    let addr = server.local_addr().to_string();

    let (index, values) = lead_dataset(50, seed());
    let request = verify_request_envelope(&index, &values);
    let mut successes = 0u32;
    let mut failures = 0u32;
    for _ in 0..60 {
        // Fresh connection per call: a fault killed the previous one.
        // The client must carry its own read budget — a server-side
        // truncated write otherwise leaves it parked mid-frame forever.
        let mut engine = SoapEngine::new(
            BxsaEncoding::default(),
            TcpBinding::new(&addr)
                .with_timeouts(transport::Timeouts::all(Duration::from_millis(500))),
        );
        match engine.call_with(request.clone(), &soap::CallOptions::new()) {
            // BXSA carries no integrity check, so injected corruption can
            // occasionally survive decoding with flipped *values* (an
            // `ok=false` reply, a garbled flag); that's a broken exchange,
            // not a test failure. Only structural outcomes are asserted:
            // every call ends in a decoded reply or a typed error.
            Ok(resp)
                if resp.body_element().and_then(|b| b.child_value("ok"))
                    == Some(&bxdm::AtomicValue::Bool(true)) =>
            {
                successes += 1;
            }
            Ok(_) => failures += 1,
            // Any structured error is acceptable; panics are not, and a
            // hung test (listener death) would time the suite out.
            Err(_) => failures += 1,
        }
    }
    assert!(successes > 0, "some exchanges must survive the injector");
    assert!(failures > 0, "this profile must break some exchanges");
    assert!(injector.lock().faults_injected() > 0);
    assert!(
        server.connection_errors() > 0,
        "server-side faults must be counted, not fatal"
    );
    server.shutdown();
}

#[test]
fn mid_exchange_drops_are_not_retried() {
    // Connects succeed; the first I/O event on every exchange is a drop.
    // A reset after the request may have left the client is ambiguous —
    // the engine must fail fast rather than risk re-execution.
    let injector = FaultInjector::new(FaultProfile {
        drop: 1.0,
        ..FaultProfile::clean(seed())
    })
    .shared();
    let mut engine = SoapEngine::new(
        XmlEncoding::default(),
        FaultingBinding::new(
            soap::binding::LoopbackBinding::new(|_: &[u8]| vec![]),
            injector,
        ),
    )
    .with_retry(RetryPolicy::no_delay(10));
    let request = SoapEnvelope::with_body(bxdm::Element::component("Anything"));
    let err = engine.call_with(request, &soap::CallOptions::new()).unwrap_err();
    assert!(
        matches!(
            err,
            SoapError::Transport(transport::TransportError::ConnectionClosed)
        ),
        "{err:?}"
    );
    assert_eq!(engine.last_call_attempts(), 1, "resets are not retry-safe");
}
