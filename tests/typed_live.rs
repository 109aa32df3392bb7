//! Live-server acceptance for the typed fast path: typed operations
//! served end to end over real sockets on both transports, each reached
//! through the runtime-selected engine `AnyEngine::connect` builds from
//! a `WireConfig` (the wire a WSDL port names).

use std::sync::Arc;

use bxsoap::{VerifyRequest, VerifyResponse};
use soap::{
    AnyEngine, BxsaEncoding, CallOptions, HttpSoapServer, ServiceRegistry, SoapService,
    TcpSoapServer, WireConfig, WireEncoding, WireTransport, XmlEncoding,
};
use transport::{HttpServerConfig, TcpServerConfig};

fn verify_dataset() -> VerifyRequest {
    let (index, values) = bxsoap::lead_dataset(512, 7);
    VerifyRequest { index, values }
}

/// Typed operations answer on a live TCP listener, reached with the
/// binary encoding the caller's wire configuration prefers.
#[test]
fn typed_verify_round_trips_over_live_tcp_with_preferred_encoding() {
    let mut registry = ServiceRegistry::new();
    bxsoap::register_verify(&mut registry);
    let mut service = SoapService::new(BxsaEncoding::default(), Arc::new(registry));
    bxsoap::register_verify_typed(&mut service);
    let server =
        TcpSoapServer::bind_service_with("127.0.0.1:0", TcpServerConfig::default(), service)
            .unwrap();
    let addr = server.local_addr().to_string();

    let config = WireConfig {
        encoding: WireEncoding::Bxsa,
        transport: WireTransport::Tcp,
    };
    let mut engine = AnyEngine::connect(config, &addr, "");
    assert_eq!(engine.config(), config);

    let request = verify_dataset();
    let response: VerifyResponse = engine.call_typed(&request, &CallOptions::new()).unwrap();
    assert!(response.ok);
    assert_eq!(response.count, request.values.len() as i64);

    // Poisoned data still takes the typed path — an application answer,
    // not a fault.
    let mut bad = verify_dataset();
    bad.values[100] = f64::NAN;
    let response: VerifyResponse = engine.call_typed(&bad, &CallOptions::new()).unwrap();
    assert!(!response.ok);

    server.shutdown();
}

/// The same typed service over HTTP with textual XML: the fast path is
/// encoding- and transport-agnostic.
#[test]
fn typed_verify_round_trips_over_live_http_xml() {
    let mut registry = ServiceRegistry::new();
    bxsoap::register_verify(&mut registry);
    let mut service = SoapService::new(XmlEncoding::default(), Arc::new(registry));
    bxsoap::register_verify_typed(&mut service);
    let server = HttpSoapServer::bind_service_with(
        "127.0.0.1:0",
        "/soap",
        HttpServerConfig::default(),
        service,
    )
    .unwrap();
    let addr = server.local_addr().to_string();

    let config = WireConfig {
        encoding: WireEncoding::Xml,
        transport: WireTransport::Http,
    };
    let mut engine = AnyEngine::connect(config, &addr, "/soap");
    let request = verify_dataset();
    let response: VerifyResponse = engine.call_typed(&request, &CallOptions::new()).unwrap();
    assert!(response.ok);
    assert_eq!(response.count, 512);

    // The generic tree pipeline shares the wire format, so a tree client
    // talking to the typed-registered server gets the same answer.
    let envelope = bxsoap::verify_request_envelope(&request.index, &request.values);
    let reply = engine.call_with(envelope, &soap::CallOptions::new()).unwrap();
    assert_eq!(reply.operation(), Some("VerifyResponse"));

    server.shutdown();
}
