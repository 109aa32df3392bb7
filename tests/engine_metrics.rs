//! The engine's counters add up: on a healthy path calls == attempts ==
//! handler runs, a retried call counts one attempt per exchange and one
//! retry per backoff, a non-idempotent call is never replayed, an
//! expired deadline stops a call before its first attempt, and only a
//! bulk BXSA typed reply has bytes received straight into typed slots
//! (`bx_engine_scattered_bytes_total`). This is its
//! own test binary, and its one test runs the phases in turn: the
//! counters are process-global, and here they see only these calls.

use std::sync::Arc;
use std::time::Duration;

use bxsoap::{lead_dataset, verify_request_envelope, VerifyRequest, VerifyResponse};
use soap::{
    BxsaEncoding, CallOptions, RetryPolicy, ServiceRegistry, SoapEngine, SoapService, TcpBinding,
    TcpSoapServer, XmlEncoding,
};
use transport::TcpServerConfig;

/// Healthy calls of each kind.
const N: u64 = 6;
/// Attempts the retry policy allows against a refused port.
const K: u32 = 4;

/// The counters the invariants relate, read at one moment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Counts {
    calls: u64,
    attempts: u64,
    retries: u64,
    deadline_expired: u64,
    circuit_open: u64,
    call_latency: u64,
    server_requests: u64,
    handler_runs: u64,
    scattered_bytes: u64,
}

impl Counts {
    fn now() -> Counts {
        let e = soap::metrics::engine();
        let s = transport::metrics::tcp_server();
        Counts {
            calls: e.calls.get(),
            attempts: e.attempts.get(),
            retries: e.retries.get(),
            deadline_expired: e.deadline_expired.get(),
            circuit_open: e.circuit_open.get(),
            call_latency: e.call_latency.count(),
            server_requests: s.requests.get(),
            handler_runs: s.handler_latency.count(),
            scattered_bytes: e.scattered_bytes.get(),
        }
    }

    /// What moved since `before`.
    fn since(before: Counts) -> Counts {
        let now = Counts::now();
        Counts {
            calls: now.calls - before.calls,
            attempts: now.attempts - before.attempts,
            retries: now.retries - before.retries,
            deadline_expired: now.deadline_expired - before.deadline_expired,
            circuit_open: now.circuit_open - before.circuit_open,
            call_latency: now.call_latency - before.call_latency,
            server_requests: now.server_requests - before.server_requests,
            handler_runs: now.handler_runs - before.handler_runs,
            scattered_bytes: now.scattered_bytes - before.scattered_bytes,
        }
    }
}

/// A port with nothing behind it: every connect is refused, which is
/// the retry-safe failure class.
fn refused_addr() -> String {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    listener.local_addr().unwrap().to_string()
}

/// Pairs of the bulk typed reply: 1.2 MB of arrays.
const BULK: usize = 100_000;

/// A service answering `Verify` (tree and typed) and, with the bulk
/// typed reply, a `VerifyResponse` naming a pair count: that many pairs
/// as a `Verify` body.
fn bulk_service<E: soap::TypedEncoding + Clone + Send + Sync + 'static>(
    encoding: E,
) -> SoapService<E> {
    let mut registry = ServiceRegistry::new();
    bxsoap::register_verify(&mut registry);
    let mut service = SoapService::new(encoding, Arc::new(registry));
    bxsoap::register_verify_typed(&mut service);
    let (index, values) = lead_dataset(BULK, 5);
    service.register_typed::<VerifyResponse, VerifyRequest, _>(
        "VerifyResponse",
        move |req, resp| {
            let n = (req.count as usize).min(BULK);
            resp.index.clear();
            resp.index.extend_from_slice(&index[..n]);
            resp.values.clear();
            resp.values.extend_from_slice(&values[..n]);
            Ok(())
        },
    );
    service
}

#[test]
fn engine_counters_match_the_calls_made() {
    let service = bulk_service(BxsaEncoding::native_order());
    let server =
        TcpSoapServer::bind_service_with("127.0.0.1:0", TcpServerConfig::default(), service)
            .unwrap();
    let addr = server.local_addr().to_string();
    let mut engine = SoapEngine::new(BxsaEncoding::default(), TcpBinding::new(&addr));
    let (index, values) = lead_dataset(64, 3);
    let typed = VerifyRequest {
        index: index.clone(),
        values: values.clone(),
    };

    // Healthy tree calls: one attempt and one handler run each.
    let before = Counts::now();
    for _ in 0..N {
        engine
            .call_with(verify_request_envelope(&index, &values), &CallOptions::new())
            .unwrap();
    }
    let healthy = Counts {
        calls: N,
        attempts: N,
        call_latency: N,
        server_requests: N,
        handler_runs: N,
        ..Counts::default()
    };
    assert_eq!(Counts::since(before), healthy, "tree calls");

    // Healthy typed calls count the same way.
    let before = Counts::now();
    for _ in 0..N {
        let reply: VerifyResponse = engine.call_typed(&typed, &CallOptions::new()).unwrap();
        assert!(reply.ok);
    }
    assert_eq!(Counts::since(before), healthy, "typed calls");

    // A bulk typed reply: both arrays, 12 bytes a pair, go to slots.
    let fetch = VerifyResponse {
        ok: true,
        count: BULK as i64,
    };
    let mut got = VerifyRequest::default();
    let before = Counts::now();
    for _ in 0..N {
        engine
            .call_typed_into(&fetch, &mut got, &CallOptions::new())
            .unwrap();
        assert_eq!(got.index.len(), BULK);
    }
    let bulk = Counts {
        scattered_bytes: N * (BULK as u64) * 12,
        ..healthy
    };
    assert_eq!(Counts::since(before), bulk, "bulk typed calls");
    server.shutdown();

    // The same typed calls in XML place nothing.
    let xml = TcpSoapServer::bind_service_with(
        "127.0.0.1:0",
        TcpServerConfig::default(),
        bulk_service(XmlEncoding::default()),
    )
    .unwrap();
    let mut xml_engine = SoapEngine::new(
        XmlEncoding::default(),
        TcpBinding::new(&xml.local_addr().to_string()),
    );
    let before = Counts::now();
    for _ in 0..N {
        xml_engine
            .call_typed_into(&fetch, &mut got, &CallOptions::new())
            .unwrap();
        assert_eq!(got.values.len(), BULK);
    }
    assert_eq!(Counts::since(before), healthy, "XML typed calls");
    xml.shutdown();

    // An engine retry policy against a refused port: K attempts, and a
    // retry before each one after the first.
    let mut refused = SoapEngine::new(BxsaEncoding::default(), TcpBinding::new(&refused_addr()))
        .with_retry(RetryPolicy::no_delay(K));
    let before = Counts::now();
    refused
        .call_with(verify_request_envelope(&index, &values), &CallOptions::new())
        .unwrap_err();
    let retried = Counts {
        calls: 1,
        attempts: u64::from(K),
        retries: u64::from(K) - 1,
        call_latency: 1,
        ..Counts::default()
    };
    assert_eq!(Counts::since(before), retried, "retried call");

    // A non-idempotent call is never replayed, whatever the policy.
    let before = Counts::now();
    refused
        .call_with(
            verify_request_envelope(&index, &values),
            &CallOptions::new().non_idempotent(),
        )
        .unwrap_err();
    let once = Counts {
        calls: 1,
        attempts: 1,
        call_latency: 1,
        ..Counts::default()
    };
    assert_eq!(Counts::since(before), once, "non-idempotent call");

    // An expired deadline stops the call before any attempt.
    let before = Counts::now();
    refused
        .call_with(
            verify_request_envelope(&index, &values),
            &CallOptions::new().within(Duration::ZERO),
        )
        .unwrap_err();
    let expired = Counts {
        calls: 1,
        deadline_expired: 1,
        call_latency: 1,
        ..Counts::default()
    };
    assert_eq!(Counts::since(before), expired, "expired deadline");
}
