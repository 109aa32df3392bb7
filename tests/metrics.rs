//! End-to-end observability tests: the `/metrics` scrape against a live
//! HTTP SOAP server, and the `obs::dump()` snapshot path for TCP-only
//! deployments.
//!
//! All tests in this binary share one process-global registry
//! ([`obs::global`]) and run concurrently, so assertions are
//! presence/monotonicity checks ("the scrape contains this family"),
//! never exact process-wide totals — those live in the `obs` crate's own
//! unit tests where the counters are private to the test.

use std::sync::Arc;
use std::time::Duration;

use bxsoap::{lead_dataset, register_verify, verify_request_envelope};
use soap::{
    BreakerConfig, BreakerRegistry, BxsaEncoding, CallOptions, HttpBinding, HttpSoapServer,
    RetryPolicy, SoapEngine, SoapError, TcpBinding, TcpSoapServer, XmlEncoding,
};

fn verify_registry() -> Arc<soap::ServiceRegistry> {
    let mut registry = soap::ServiceRegistry::new();
    register_verify(&mut registry);
    Arc::new(registry)
}

/// The tentpole acceptance check: a stock [`HttpSoapServer`] answers
/// `GET /metrics` with a Prometheus text scrape carrying the engine,
/// breaker, and server families, with real traffic behind the numbers.
#[test]
fn metrics_scrape_reports_engine_breaker_and_server_families() {
    let server = HttpSoapServer::bind(
        "127.0.0.1:0",
        "/soap",
        XmlEncoding::default(),
        verify_registry(),
    )
    .unwrap();
    let addr = server.local_addr().to_string();

    // Real calls through a breaker-guarded engine: attempts, latency,
    // and per-endpoint breaker state all get non-trivial values.
    let breakers = BreakerRegistry::new(BreakerConfig::default());
    let mut engine = SoapEngine::new(XmlEncoding::default(), HttpBinding::new(&addr, "/soap"))
        .with_breaker(breakers.handle("metrics-e2e-http"));
    let (index, values) = lead_dataset(20, 42);
    let request = verify_request_envelope(&index, &values);
    for _ in 0..3 {
        engine.call_with(request.clone(), &soap::CallOptions::new()).expect("healthy server");
    }

    // A deadline already expired when the call starts: the engine must
    // count it instead of attempting an exchange.
    let err = engine
        .call_with(request.clone(), &CallOptions::new().within(Duration::ZERO))
        .unwrap_err();
    assert!(matches!(err, SoapError::Transport(_)), "{err:?}");

    // Retries: a dead endpoint with a retry budget burns visible retries.
    let mut doomed = SoapEngine::new(
        BxsaEncoding::default(),
        TcpBinding::new("127.0.0.1:1"),
    )
    .with_retry(RetryPolicy::no_delay(3));
    let _ = doomed.call_with(request.clone(), &soap::CallOptions::new()).unwrap_err();

    // A tripped breaker: trips counter and open-state gauge.
    let tripped = transport::BreakerHandle::standalone(
        "metrics-e2e-tripped",
        BreakerConfig {
            min_samples: 4,
            ..BreakerConfig::default()
        },
    );
    for _ in 0..4 {
        tripped.record(false);
    }
    assert_eq!(tripped.state(), transport::BreakerState::Open);

    // A hostile Content-Length populates the typed server error counter
    // (and proves the scrape endpoint survives sharing a listener with
    // abuse).
    {
        use std::io::{BufReader, Write};
        let mut raw = std::net::TcpStream::connect(&addr).unwrap();
        raw.write_all(b"POST /soap HTTP/1.1\r\nContent-Length: 1073741824\r\n\r\n")
            .unwrap();
        let resp = transport::HttpResponse::read_from(&mut BufReader::new(raw)).unwrap();
        assert_eq!(resp.status, 413);
    }

    let scrape = String::from_utf8(transport::http_get(&addr, "/metrics").unwrap()).unwrap();

    // Engine-layer families.
    assert!(scrape.contains("# TYPE bx_engine_calls_total counter"), "{scrape}");
    assert!(scrape.contains("bx_engine_attempts_total"), "missing attempts");
    assert!(scrape.contains("bx_engine_retries_total"), "missing retries");
    assert!(scrape.contains("bx_engine_deadline_expired_total"), "missing deadline");
    assert!(scrape.contains("bx_engine_circuit_open_total"), "missing circuit-open");
    assert!(
        scrape.contains("bx_engine_call_latency_nanoseconds_count"),
        "missing call latency histogram"
    );

    // Breaker families, labelled per endpoint.
    assert!(
        scrape.contains("bx_breaker_state{endpoint=\"metrics-e2e-http\"} 0"),
        "healthy breaker must export closed state: {scrape}"
    );
    assert!(
        scrape.contains("bx_breaker_state{endpoint=\"metrics-e2e-tripped\"} 2"),
        "tripped breaker must export open state: {scrape}"
    );
    assert!(
        scrape.contains("bx_breaker_trips_total{endpoint=\"metrics-e2e-tripped\"} 1"),
        "trip must be counted: {scrape}"
    );

    // Server families, labelled per transport.
    assert!(scrape.contains("bx_server_connections_total{transport=\"http\"}"));
    assert!(scrape.contains("bx_server_bytes_in_total{transport=\"http\"}"));
    assert!(scrape.contains("bx_server_bytes_out_total{transport=\"http\"}"));
    assert!(scrape.contains(
        "bx_server_handler_latency_nanoseconds_count{transport=\"http\"}"
    ));
    assert!(
        scrape.contains(
            "bx_server_connection_errors_total{transport=\"http\",kind=\"frame_too_large\"}"
        ),
        "413 must be counted by kind: {scrape}"
    );

    // Reactor families (PR 6): live-connection gauge, accept-to-dispatch
    // latency, and per-worker loop counters. The scrape itself arrives
    // over a live connection, so the gauge must read ≥ 1 at scrape time.
    assert!(
        scrape.contains("bx_server_connections_active{transport=\"http\"}"),
        "missing live-connection gauge: {scrape}"
    );
    let active = scrape
        .lines()
        .find(|l| l.starts_with("bx_server_connections_active{transport=\"http\"}"))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse::<f64>().ok())
        .expect("gauge sample parses");
    assert!(active >= 1.0, "scraping connection must be counted live");
    assert!(
        scrape.contains("bx_server_accept_to_dispatch_nanoseconds_count{transport=\"http\"}"),
        "missing accept-to-dispatch histogram: {scrape}"
    );
    assert!(
        scrape.contains("bx_server_worker_loop_iterations_total{transport=\"http\",worker=\"0\"}"),
        "missing per-worker loop counter: {scrape}"
    );

    server.shutdown();
}

/// TCP-only deployments have no HTTP listener to scrape; the snapshot
/// API ([`obs::dump`]) is their export path, and the framed-TCP server
/// feeds the same families under `transport="tcp"`.
#[test]
fn tcp_only_deployment_exports_via_dump() {
    let server = TcpSoapServer::bind(
        "127.0.0.1:0",
        BxsaEncoding::default(),
        verify_registry(),
    )
    .unwrap();
    let addr = server.local_addr().to_string();

    let mut engine = SoapEngine::new(BxsaEncoding::default(), TcpBinding::new(&addr));
    let (index, values) = lead_dataset(50, 7);
    let request = verify_request_envelope(&index, &values);
    for _ in 0..2 {
        let resp = engine.call_with(request.clone(), &soap::CallOptions::new()).unwrap();
        assert_eq!(
            resp.body_element().unwrap().child_value("ok"),
            Some(&bxdm::AtomicValue::Bool(true))
        );
    }

    let dump = obs::dump();
    assert!(dump.contains("bx_server_connections_total{transport=\"tcp\"}"), "{dump}");
    assert!(dump.contains("bx_server_bytes_in_total{transport=\"tcp\"}"));
    assert!(dump.contains("bx_server_bytes_out_total{transport=\"tcp\"}"));
    assert!(dump.contains("bx_server_handler_latency_nanoseconds_count{transport=\"tcp\"}"));

    // The typed snapshot carries the same data as structured values —
    // what a bench binary embeds in its report instead of parsing text.
    let samples = obs::global().snapshot();
    let connections = samples
        .iter()
        .find(|s| {
            s.name == "bx_server_connections_total" && s.labels.contains("transport=\"tcp\"")
        })
        .expect("tcp connections sample");
    match &connections.value {
        // The framed binding keeps one persistent connection across
        // calls, so ≥ 1, not one-per-call.
        obs::SampleValue::Counter(n) => assert!(*n >= 1, "no tcp connections counted"),
        other => panic!("connections must be a counter: {other:?}"),
    }

    server.shutdown();
}

/// The scrape endpoint is plumbing, not magic: it can be disabled (or
/// moved) through [`transport::ServerBuilder::metrics_path`], and a
/// plain HTTP [`transport::Server`] without the flag never answers it.
#[test]
fn metrics_path_is_opt_in_for_plain_http_servers() {
    let server = transport::ServerBuilder::bind("127.0.0.1:0")
        .serve_http(
            || (),
            |(), _head, _body, reply, _ctl| reply.body.extend_from_slice(b"app"),
        )
        .unwrap();
    let addr = server.local_addr().to_string();
    // No metrics_path configured: the application handler owns every
    // path, including /metrics.
    assert_eq!(transport::http_get(&addr, "/metrics").unwrap(), b"app");
    server.shutdown();

    let server = transport::ServerBuilder::bind("127.0.0.1:0")
        .metrics_path("/internal/metrics")
        .serve_http(
            || (),
            |(), _head, _body, reply, _ctl| reply.body.extend_from_slice(b"app"),
        )
        .unwrap();
    let addr = server.local_addr().to_string();
    let scrape = String::from_utf8(transport::http_get(&addr, "/internal/metrics").unwrap())
        .unwrap();
    assert!(scrape.contains("bx_server_connections_total"), "{scrape}");
    assert_eq!(transport::http_get(&addr, "/metrics").unwrap(), b"app");
    server.shutdown();
}
