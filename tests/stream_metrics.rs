//! The stream metrics count every part every node moves. One streamed
//! exchange crosses client → transcoding relay → endpoint, all in this
//! process, so each part is counted once where it is sent and once
//! where it is received, on both legs. This is its own test binary: the
//! counters are process-global, and here they see only this exchange.

use std::sync::Arc;

use bxdm::{ArrayValue, AtomicValue, Element};
use soap::{
    BxsaEncoding, CallOptions, HttpBinding, HttpSoapServer, Intermediary, ServiceRegistry,
    SoapEngine, SoapEnvelope, SoapError, SoapResult, SoapService, StreamEncoding, StreamOp,
    XmlEncoding,
};

/// Request parts the client sends.
const N: usize = 3;
/// Reply parts the endpoint sends back.
const M: usize = 5;
/// Values per reply part; request parts are smaller.
const REPLY_LEN: usize = 4096;

/// Counts the request parts, then streams `M` reply batches.
#[derive(Default)]
struct EchoCountOp {
    received: usize,
    sent: usize,
}

impl StreamOp for EchoCountOp {
    fn start(&mut self, _manifest: &SoapEnvelope) -> SoapResult<()> {
        Ok(())
    }

    fn on_part(&mut self, part: &Element) -> SoapResult<()> {
        part.as_f64_array()
            .ok_or_else(|| SoapError::Protocol("batch is not an f64 array".into()))?;
        self.received += 1;
        Ok(())
    }

    fn finish(&mut self) -> SoapResult<SoapEnvelope> {
        Ok(SoapEnvelope::with_body(
            Element::component("CountResponse")
                .with_child(Element::leaf("parts", AtomicValue::I32(self.received as i32))),
        ))
    }

    fn next_part(&mut self, slot: &mut Element) -> SoapResult<bool> {
        if self.sent == M {
            return Ok(false);
        }
        self.sent += 1;
        *slot = reply_part();
        Ok(true)
    }
}

fn reply_part() -> Element {
    Element::array(
        "batch",
        ArrayValue::F64((0..REPLY_LEN).map(|i| i as f64 + 0.25).collect()),
    )
}

#[test]
fn every_node_counts_the_parts_it_moves() {
    let mut service = SoapService::new(XmlEncoding::default(), Arc::new(ServiceRegistry::new()));
    service.register_streaming("Count", || Box::<EchoCountOp>::default());
    let server = HttpSoapServer::bind_service_with(
        "127.0.0.1:0",
        "/soap",
        transport::HttpServerConfig::default(),
        service,
    )
    .unwrap();
    let relay = Intermediary::bind_http_streaming(
        "127.0.0.1:0",
        "/soap",
        BxsaEncoding::default(),
        XmlEncoding::default(),
        &server.local_addr().to_string(),
        "/soap",
    )
    .unwrap();
    let mut engine = SoapEngine::new(
        BxsaEncoding::default(),
        HttpBinding::new(&relay.local_addr().to_string(), "/soap"),
    );

    let m = soap::metrics::stream();
    let (streams, parts_in, parts_out) = (m.streams.get(), m.parts_in.get(), m.parts_out.get());
    let mut reply = engine
        .call_streaming(
            SoapEnvelope::with_body(Element::component("Count")),
            &CallOptions::new(),
            |tx| {
                for _ in 0..N {
                    tx.send(&Element::array("batch", ArrayValue::F64(vec![1.5; 16])))?;
                }
                Ok(())
            },
        )
        .unwrap();
    let mut pulled = 0;
    while reply.next_part().unwrap().is_some() {
        pulled += 1;
    }
    let parts = reply.envelope().body_element().unwrap().child_value("parts").cloned();
    assert_eq!(parts, Some(AtomicValue::I32(N as i32)));
    assert_eq!(pulled, M);

    // Each leg carries N + 1 request parts and M + 1 reply parts (the
    // manifests included); both ends of both legs count them.
    let moved = (2 * (N + M + 2)) as u64;
    assert_eq!(m.parts_in.get() - parts_in, moved, "parts received");
    assert_eq!(m.parts_out.get() - parts_out, moved, "parts sent");
    // Client, relay (down and up) and endpoint each start one exchange.
    assert_eq!(m.streams.get() - streams, 4, "streamed exchanges");
    // The largest part is an XML reply part, which only the endpoint
    // sends and only the relay's up-link receives.
    let mut xml = Vec::new();
    XmlEncoding::default()
        .encode_part_into(&reply_part(), &mut xml)
        .unwrap();
    assert!(m.part_bytes_max.get() >= xml.len() as f64, "window high-watermark");

    relay.shutdown();
    server.shutdown();
}
