//! End-to-end streaming over live sockets: constant-memory message
//! exchange through the whole stack — engine, HTTP chunked transport,
//! reactor server, and the streaming intermediary.
//!
//! The payloads here are deliberately many multiples of the streaming
//! window (one part): 16 parts of 16 Ki f64 values each (~128 KiB
//! encoded per part, ~2 MiB per message), so any accidental
//! whole-message buffering would be loud in the alloc-counter gate the
//! bench crate runs over the same path.

use std::sync::Arc;

use bxdm::{ArrayValue, AtomicValue, Element};
use soap::{
    BxsaEncoding, CallOptions, FaultCode, HttpBinding, HttpSoapServer, Intermediary,
    ServiceRegistry, SoapEngine, SoapEnvelope, SoapError, SoapResult, SoapService, StreamOp,
    XmlEncoding,
};

/// Values per uploaded/downloaded batch (~128 KiB of f64 on the wire).
const BATCH_LEN: usize = 16 * 1024;
/// Batches per message: payload is 16x the one-part window.
const PARTS: usize = 16;

/// Server op: fold every uploaded batch into a running sum; reply with
/// one small manifest (no reply parts). Nothing is retained per part.
#[derive(Default)]
struct SumOp {
    sum: f64,
    parts: i32,
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
        self.parts += 1;
        Ok(())
    }

    fn finish(&mut self) -> SoapResult<SoapEnvelope> {
        Ok(SoapEnvelope::with_body(
            Element::component("SumResponse")
                .with_child(Element::leaf("sum", AtomicValue::F64(self.sum)))
                .with_child(Element::leaf("parts", AtomicValue::I32(self.parts))),
        ))
    }

    fn next_part(&mut self, _slot: &mut Element) -> SoapResult<bool> {
        Ok(false)
    }
}

/// Server op: stream `parts` generated batches back, one per reply
/// chunk — the download direction. Batch `i` is `len` copies of `i`.
#[derive(Default)]
struct GenerateOp {
    parts: i32,
    len: usize,
    next: i32,
}

impl StreamOp for GenerateOp {
    fn start(&mut self, manifest: &SoapEnvelope) -> SoapResult<()> {
        let body = manifest
            .body_element()
            .ok_or_else(|| SoapError::Protocol("empty Generate manifest".into()))?;
        self.parts = body
            .child_value("parts")
            .and_then(AtomicValue::as_i32)
            .ok_or_else(|| SoapError::Protocol("Generate needs a parts count".into()))?;
        self.len = body
            .child_value("len")
            .and_then(AtomicValue::as_i32)
            .ok_or_else(|| SoapError::Protocol("Generate needs a batch len".into()))?
            as usize;
        Ok(())
    }

    fn on_part(&mut self, _part: &Element) -> SoapResult<()> {
        Ok(())
    }

    fn finish(&mut self) -> SoapResult<SoapEnvelope> {
        Ok(SoapEnvelope::with_body(Element::component(
            "GenerateResponse",
        )))
    }

    fn next_part(&mut self, slot: &mut Element) -> SoapResult<bool> {
        if self.next >= self.parts {
            return Ok(false);
        }
        *slot = Element::array(
            "batch",
            ArrayValue::F64(vec![f64::from(self.next); self.len]),
        );
        self.next += 1;
        Ok(true)
    }
}

fn streaming_service<E: soap::EncodingPolicy>(encoding: E) -> SoapService<E> {
    let mut service = SoapService::new(encoding, Arc::new(ServiceRegistry::new()));
    service.register_streaming("Sum", || Box::<SumOp>::default());
    service.register_streaming("Generate", || Box::<GenerateOp>::default());
    service
}

fn serve<E>(encoding: E) -> HttpSoapServer
where
    E: soap::StreamEncoding + Send + Sync + 'static,
{
    HttpSoapServer::bind_service_with(
        "127.0.0.1:0",
        "/soap",
        transport::HttpServerConfig::default(),
        streaming_service(encoding),
    )
    .unwrap()
}

fn engine_for(addr: &str) -> SoapEngine<BxsaEncoding, HttpBinding> {
    SoapEngine::new(BxsaEncoding::default(), HttpBinding::new(addr, "/soap"))
}

/// Upload PARTS batches, return the server's (sum, parts) answer.
fn upload_sum(engine: &mut SoapEngine<BxsaEncoding, HttpBinding>) -> (f64, i32) {
    let batch: Vec<f64> = (0..BATCH_LEN).map(|i| i as f64).collect();
    let mut reply = engine
        .call_streaming(
            SoapEnvelope::with_body(Element::component("Sum")),
            &CallOptions::new(),
            |tx| {
                let part = Element::array("batch", ArrayValue::F64(batch.clone()));
                for _ in 0..PARTS {
                    tx.send(&part)?;
                }
                Ok(())
            },
        )
        .unwrap();
    // Drain to the terminator (no payload parts expected) so the
    // connection stays reusable for the next call.
    assert!(reply.next_part().unwrap().is_none());
    let envelope = reply.into_envelope();
    let body = envelope.body_element().unwrap();
    (
        body.child_value("sum").and_then(AtomicValue::as_f64).unwrap(),
        body.child_value("parts")
            .and_then(AtomicValue::as_i32)
            .unwrap(),
    )
}

fn expected_sum() -> f64 {
    let per_batch: f64 = (0..BATCH_LEN).map(|i| i as f64).sum();
    per_batch * PARTS as f64
}

/// Download PARTS generated batches, return (value sum, parts pulled).
fn download_generate(engine: &mut SoapEngine<BxsaEncoding, HttpBinding>) -> (f64, u64) {
    let mut reply = engine
        .call_streaming(
            SoapEnvelope::with_body(
                Element::component("Generate")
                    .with_child(Element::leaf("parts", AtomicValue::I32(PARTS as i32)))
                    .with_child(Element::leaf("len", AtomicValue::I32(BATCH_LEN as i32))),
            ),
            &CallOptions::new(),
            |_tx| Ok(()),
        )
        .unwrap();
    let mut sum = 0.0;
    while let Some(part) = reply.next_part().unwrap() {
        sum += part.as_f64_array().unwrap().iter().sum::<f64>();
    }
    (sum, reply.parts_received())
}

fn expected_generate_sum() -> f64 {
    (0..PARTS).map(|i| i as f64 * BATCH_LEN as f64).sum()
}

#[test]
fn streams_large_upload_to_server() {
    let server = serve(BxsaEncoding::default());
    let mut engine = engine_for(&server.local_addr().to_string());
    let (sum, parts) = upload_sum(&mut engine);
    assert_eq!(parts, PARTS as i32);
    assert_eq!(sum, expected_sum());
    server.shutdown();
}

#[test]
fn streams_large_download_from_server() {
    let server = serve(BxsaEncoding::default());
    let mut engine = engine_for(&server.local_addr().to_string());
    let (sum, parts) = download_generate(&mut engine);
    assert_eq!(parts, PARTS as u64);
    assert_eq!(sum, expected_generate_sum());
    server.shutdown();
}

#[test]
fn streamed_connection_is_reused_and_interops_with_buffered() {
    let server = serve(BxsaEncoding::default());
    let mut engine = engine_for(&server.local_addr().to_string());

    // Drained streamed exchanges keep the socket alive...
    let first = upload_sum(&mut engine);
    let second = upload_sum(&mut engine);
    assert_eq!(first, second);
    assert!(
        engine.binding().connection_reuses() >= 1,
        "second streamed call must reuse the kept connection"
    );

    // ...and a buffered call can follow on the same connection. (The
    // service has no buffered ops, so the answer is a clean fault — the
    // point is that the exchange itself survives after streaming.)
    match engine.call_with(
        SoapEnvelope::with_body(Element::component("Sum")),
        &CallOptions::new(),
    ) {
        Err(SoapError::Fault(_)) => {}
        other => panic!("expected a buffered fault exchange, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn unregistered_streaming_operation_faults_in_band() {
    let server = serve(BxsaEncoding::default());
    let mut engine = engine_for(&server.local_addr().to_string());
    let result = engine.call_streaming(
        SoapEnvelope::with_body(Element::component("Nope")),
        &CallOptions::new(),
        |tx| {
            tx.send(&Element::array("batch", ArrayValue::F64(vec![1.0])))?;
            Ok(())
        },
    );
    match result {
        Err(SoapError::Fault(f)) => assert_eq!(f.code, FaultCode::Client),
        other => panic!("expected in-band fault, got {:?}", other.map(|_| ())),
    }
    server.shutdown();
}

/// The §5.1 transcoding scenario, streamed: BXSA client, XML server,
/// every part transcoded at the relay — in O(window) memory.
#[test]
fn streams_through_transcoding_intermediary() {
    let server = serve(XmlEncoding::default());
    let relay = Intermediary::bind_http_streaming(
        "127.0.0.1:0",
        "/soap",
        BxsaEncoding::default(),
        XmlEncoding::default(),
        &server.local_addr().to_string(),
        "/soap",
    )
    .unwrap();
    let mut engine = engine_for(&relay.local_addr().to_string());

    let (sum, parts) = upload_sum(&mut engine);
    assert_eq!(parts, PARTS as i32);
    assert_eq!(sum, expected_sum());

    let (sum, parts) = download_generate(&mut engine);
    assert_eq!(parts, PARTS as u64);
    assert_eq!(sum, expected_generate_sum());

    relay.shutdown();
    server.shutdown();
}

/// Same-encoding hops: the relay forwards part bytes verbatim (BXSA
/// frames are byte-order self-describing), still one part at a time.
#[test]
fn streams_through_verbatim_intermediary() {
    let server = serve(BxsaEncoding::default());
    let relay = Intermediary::bind_http_streaming(
        "127.0.0.1:0",
        "/soap",
        BxsaEncoding::default(),
        BxsaEncoding::default(),
        &server.local_addr().to_string(),
        "/soap",
    )
    .unwrap();
    let mut engine = engine_for(&relay.local_addr().to_string());

    let (sum, parts) = upload_sum(&mut engine);
    assert_eq!(parts, PARTS as i32);
    assert_eq!(sum, expected_sum());

    let (sum, parts) = download_generate(&mut engine);
    assert_eq!(parts, PARTS as u64);
    assert_eq!(sum, expected_generate_sum());

    relay.shutdown();
    server.shutdown();
}

#[test]
fn relay_surfaces_streamed_upstream_fault_in_band() {
    let server = serve(XmlEncoding::default());
    let relay = Intermediary::bind_http_streaming(
        "127.0.0.1:0",
        "/soap",
        BxsaEncoding::default(),
        XmlEncoding::default(),
        &server.local_addr().to_string(),
        "/soap",
    )
    .unwrap();
    let mut engine = engine_for(&relay.local_addr().to_string());
    let result = engine.call_streaming(
        SoapEnvelope::with_body(Element::component("Nope")),
        &CallOptions::new(),
        |_tx| Ok(()),
    );
    match result {
        Err(SoapError::Fault(_)) => {}
        other => panic!("expected relayed fault, got {:?}", other.map(|_| ())),
    }
    relay.shutdown();
    server.shutdown();
}

#[test]
fn relay_with_dead_upstream_faults_streamed_calls() {
    let relay = Intermediary::bind_http_streaming(
        "127.0.0.1:0",
        "/soap",
        BxsaEncoding::default(),
        XmlEncoding::default(),
        "127.0.0.1:1", // nothing listening
        "/soap",
    )
    .unwrap();
    let mut engine = engine_for(&relay.local_addr().to_string());
    let result = engine.call_streaming(
        SoapEnvelope::with_body(Element::component("Sum")),
        &CallOptions::new(),
        |tx| {
            tx.send(&Element::array("batch", ArrayValue::F64(vec![1.0])))?;
            Ok(())
        },
    );
    match result {
        Err(SoapError::Fault(f)) => assert_eq!(f.code, FaultCode::Server),
        other => panic!("expected server fault, got {:?}", other.map(|_| ())),
    }
    relay.shutdown();
}

/// A transcoded part that outgrows the streaming window is this hop's
/// doing: the relay refuses it before writing it upstream and answers
/// the sender with a Server fault naming the window.
#[test]
fn relay_refuses_a_transcoded_part_over_the_window() {
    let server = serve(XmlEncoding::default());
    let relay = Intermediary::bind_http_streaming(
        "127.0.0.1:0",
        "/soap",
        BxsaEncoding::default(),
        XmlEncoding::default(),
        &server.local_addr().to_string(),
        "/soap",
    )
    .unwrap();
    // Long decimals: about 8 bytes per value in BXSA, over 20 in XML.
    let values: Vec<f64> = (0..400_000).map(|i| f64::from(i) + 1.0 / 3.0).collect();
    let part = Element::array("batch", ArrayValue::F64(values));
    let (mut bxsa, mut xml) = (Vec::new(), Vec::new());
    soap::StreamEncoding::encode_part_into(&BxsaEncoding::default(), &part, &mut bxsa).unwrap();
    soap::StreamEncoding::encode_part_into(&XmlEncoding::default(), &part, &mut xml).unwrap();
    assert!(bxsa.len() < soap::MAX_PART_LEN && xml.len() > soap::MAX_PART_LEN);

    let mut engine = engine_for(&relay.local_addr().to_string());
    let result = engine.call_streaming(
        SoapEnvelope::with_body(Element::component("Sum")),
        &CallOptions::new(),
        |tx| tx.send(&part),
    );
    match result {
        Err(SoapError::Fault(f)) => {
            assert_eq!(f.code, FaultCode::Server);
            assert!(f.string.contains("streaming window"), "fault: {}", f.string);
        }
        other => panic!("expected a Server fault, got {:?}", other.map(|_| ())),
    }
    relay.shutdown();
    server.shutdown();
}

/// A reply manifest the service cannot encode (here an undeclared
/// prefix) is the service's failure: the sender gets a buffered Server
/// fault, and the connection stays usable.
#[test]
fn unencodable_reply_manifest_faults_in_band() {
    struct BadReplyOp;
    impl StreamOp for BadReplyOp {
        fn start(&mut self, _manifest: &SoapEnvelope) -> SoapResult<()> {
            Ok(())
        }
        fn on_part(&mut self, _part: &Element) -> SoapResult<()> {
            Ok(())
        }
        fn finish(&mut self) -> SoapResult<SoapEnvelope> {
            Ok(SoapEnvelope::with_body(Element::component("m:BadResponse")))
        }
        fn next_part(&mut self, _slot: &mut Element) -> SoapResult<bool> {
            Ok(false)
        }
    }
    let mut service = streaming_service(BxsaEncoding::default());
    service.register_streaming("Bad", || Box::new(BadReplyOp));
    let server = HttpSoapServer::bind_service_with(
        "127.0.0.1:0",
        "/soap",
        transport::HttpServerConfig::default(),
        service,
    )
    .unwrap();
    let mut engine = engine_for(&server.local_addr().to_string());
    let result = engine.call_streaming(
        SoapEnvelope::with_body(Element::component("Bad")),
        &CallOptions::new(),
        |_tx| Ok(()),
    );
    match result {
        Err(SoapError::Fault(f)) => assert_eq!(f.code, FaultCode::Server),
        other => panic!("expected a Server fault, got {:?}", other.map(|_| ())),
    }
    let (sum, parts) = upload_sum(&mut engine);
    assert_eq!((sum, parts), (expected_sum(), PARTS as i32));
    server.shutdown();
}
