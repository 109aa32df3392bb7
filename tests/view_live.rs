//! BXSA `Verify` requests read in place. `register_verify`'s view reads
//! the arrays where the server received them, and it answers every
//! request byte for byte as the tree handler alone would: byte order,
//! alignment, checksums, deadlines, foreign headers and broken messages
//! included.

use std::borrow::Cow;
use std::sync::{Arc, Mutex};

use bxdm::{ArrayValue, AtomicValue, Element};
use bxsoap::{lead_dataset, verify_dataset, verify_request_envelope, VerifyResponse, VerifyView};
use soap::{
    BindingPolicy, BxsaEncoding, DeadlineHeader, DecodeScratch, EncodingPolicy, FaultCode,
    HttpBinding, HttpSoapServer, ServiceRegistry, SoapEnvelope, SoapService, TcpBinding,
    TcpSoapServer, XmlEncoding,
};
use xbs::ByteOrder;

/// What one view-handler run saw of its `values` array.
#[derive(Debug, Clone, Copy)]
struct Seen {
    at: usize,
    len: usize,
    borrowed: bool,
}

/// `register_verify`, with its view replaced by one that records where
/// each request's `values` array lay.
fn recording_registry() -> (Arc<ServiceRegistry>, Arc<Mutex<Vec<Seen>>>) {
    let seen = Arc::new(Mutex::new(Vec::new()));
    let record = Arc::clone(&seen);
    let mut registry = ServiceRegistry::new();
    bxsoap::register_verify(&mut registry);
    registry.register_view::<VerifyView<'static>, VerifyResponse, _>("Verify", move |req, resp| {
        record.lock().unwrap().push(Seen {
            at: req.values.as_ptr() as usize,
            len: req.values.len(),
            borrowed: matches!(req.values, Cow::Borrowed(_)),
        });
        resp.ok = verify_dataset(&req.index, &req.values);
        resp.count = req.values.len() as i64;
        Ok(())
    });
    (Arc::new(registry), seen)
}

/// The one view run since the last call.
fn last_seen(seen: &Mutex<Vec<Seen>>) -> Seen {
    let mut seen = seen.lock().unwrap();
    assert_eq!(seen.len(), 1, "exactly one view run expected: {seen:?}");
    seen.pop().unwrap()
}

/// `bytes` copied into a fresh buffer at an address `shift` bytes past
/// a multiple of 8; returns the buffer and where the copy starts.
fn placed(bytes: &[u8], shift: usize) -> (Vec<u8>, usize) {
    let mut buf = Vec::with_capacity(bytes.len() + 16);
    let start = (8 - buf.as_ptr() as usize % 8) % 8 + shift;
    buf.resize(start, 0);
    buf.extend_from_slice(bytes);
    (buf, start)
}

fn foreign_order() -> ByteOrder {
    match ByteOrder::native() {
        ByteOrder::Little => ByteOrder::Big,
        ByteOrder::Big => ByteOrder::Little,
    }
}

fn in_order(byte_order: ByteOrder) -> BxsaEncoding {
    BxsaEncoding {
        options: bxsa::EncodeOptions {
            byte_order,
            ..Default::default()
        },
    }
}

/// Handle `request` on fresh scratch; the reply bytes.
fn reply_of(service: &SoapService<BxsaEncoding>, request: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    service.handle(&mut DecodeScratch::default(), request, &mut out);
    out
}

#[test]
fn the_view_reads_values_where_the_connection_received_them() {
    const PAIRS: usize = 10_000;
    let (registry, seen) = recording_registry();
    let native = BxsaEncoding::native_order();
    let (index, values) = lead_dataset(PAIRS, 3);
    let request = native
        .encode(&verify_request_envelope(&index, &values).into_document())
        .unwrap();

    // Where the values payload starts within the message.
    let service = SoapService::new(native.clone(), Arc::clone(&registry));
    let (buf, start) = placed(&request, 0);
    let aligned_reply = reply_of(&service, &buf[start..]);
    let local = last_seen(&seen);
    assert!(local.borrowed, "an aligned native request is read in place");
    let offset = local.at - buf[start..].as_ptr() as usize;

    let tcp = TcpSoapServer::bind("127.0.0.1:0", native.clone(), Arc::clone(&registry)).unwrap();
    let http = HttpSoapServer::bind(
        "127.0.0.1:0",
        "/soap",
        native.clone(),
        Arc::clone(&registry),
    )
    .unwrap();
    let mut bindings: Vec<(&str, Box<dyn BindingPolicy>)> = vec![
        (
            "tcp",
            Box::new(TcpBinding::new(&tcp.local_addr().to_string())),
        ),
        (
            "http",
            Box::new(HttpBinding::new(&http.local_addr().to_string(), "/soap")),
        ),
    ];
    for (name, binding) in &mut bindings {
        let mut first = None;
        for _ in 0..2 {
            let reply = binding.exchange(&request, native.content_type()).unwrap();
            assert_eq!(reply, aligned_reply, "{name}: the live reply differs");
            let at = last_seen(&seen);
            assert_eq!(at.len, PAIRS);
            assert!(
                at.borrowed,
                "{name}: values were copied out of the receive buffer"
            );
            assert_eq!(
                (at.at - offset) % 8,
                0,
                "{name}: the receive buffer is not 8-aligned"
            );
            // One connection, one receive buffer, reused for each request.
            assert_eq!(*first.get_or_insert(at.at), at.at, "{name}: values moved");
        }
    }
    drop(bindings);
    tcp.shutdown();
    http.shutdown();

    // Off by one byte, and in the foreign byte order: the view copies,
    // and the reply does not change by a byte.
    let (buf, start) = placed(&request, 1);
    assert_eq!(reply_of(&service, &buf[start..]), aligned_reply);
    assert!(!last_seen(&seen).borrowed);
    let foreign = in_order(foreign_order())
        .encode(&verify_request_envelope(&index, &values).into_document())
        .unwrap();
    let (buf, start) = placed(&foreign, 0);
    assert_eq!(reply_of(&service, &buf[start..]), aligned_reply);
    assert!(!last_seen(&seen).borrowed);
}

/// A registry with `register_verify`'s tree handler only.
fn tree_only_registry() -> Arc<ServiceRegistry> {
    let mut inner = ServiceRegistry::new();
    bxsoap::register_verify(&mut inner);
    let mut registry = ServiceRegistry::new();
    registry.register("Verify", move |req| Ok(inner.dispatch(req)));
    Arc::new(registry)
}

fn verify_with(children: Vec<Element>) -> SoapEnvelope {
    let mut body =
        Element::component("d:Verify").with_namespace("d", "http://bxsoap.example.org/lead");
    for child in children {
        body.push_child(child);
    }
    SoapEnvelope::with_body(body)
}

fn stamped(mut env: SoapEnvelope, budget_millis: u64) -> SoapEnvelope {
    DeadlineHeader::new(budget_millis, 8).stamp(&mut env);
    env
}

/// Request envelopes of every shape the view path meets, named.
fn request_shapes() -> Vec<(&'static str, SoapEnvelope)> {
    let (index, values) = lead_dataset(1000, 9);
    let mut nan = values.clone();
    nan[500] = f64::NAN;
    let i32s = |v: &[i32]| Element::array("d:index", ArrayValue::I32(v.to_vec()));
    let f64s = |v: &[f64]| Element::array("d:values", ArrayValue::F64(v.to_vec()));
    vec![
        ("valid", verify_request_envelope(&index, &values)),
        ("nan reading", verify_request_envelope(&index, &nan)),
        ("empty", verify_request_envelope(&[], &[])),
        (
            "length mismatch",
            verify_request_envelope(&index[..999], &values),
        ),
        ("missing index", verify_with(vec![f64s(&values)])),
        (
            "mistyped values",
            verify_with(vec![
                i32s(&index),
                Element::array("d:values", ArrayValue::I32(index.clone())),
            ]),
        ),
        (
            "duplicate arrays",
            verify_with(vec![i32s(&index), f64s(&values), i32s(&[7]), f64s(&nan)]),
        ),
        (
            "values as a leaf",
            verify_with(vec![
                i32s(&index),
                Element::leaf("d:values", AtomicValue::F64(1.0)),
            ]),
        ),
        (
            "unknown child",
            verify_with(vec![
                Element::leaf("d:note", AtomicValue::Str("x".into())),
                i32s(&index),
                f64s(&values),
            ]),
        ),
        (
            "live deadline",
            stamped(verify_request_envelope(&index, &values), 60_000),
        ),
        (
            "expired deadline",
            stamped(verify_request_envelope(&index, &values), 0),
        ),
        (
            "malformed deadline",
            verify_request_envelope(&index, &values).with_header(
                Element::component("bx:Deadline")
                    .with_child(Element::leaf("bx:hops", AtomicValue::I64(3))),
            ),
        ),
        (
            "foreign header",
            verify_request_envelope(&index, &values).with_header(
                Element::leaf("d:Note", AtomicValue::Str("x".into()))
                    .with_namespace("d", bxsoap::LEAD_NS),
            ),
        ),
        (
            "mustUnderstand header",
            verify_request_envelope(&index, &values).with_header(
                Element::component("d:Mystery")
                    .with_namespace("d", bxsoap::LEAD_NS)
                    .with_attr("soapenv:mustUnderstand", "1"),
            ),
        ),
        (
            "attributed body entry",
            SoapEnvelope::with_body(
                Element::component("d:Verify")
                    .with_namespace("d", bxsoap::LEAD_NS)
                    .with_attr("d:id", "7")
                    .with_child(i32s(&index))
                    .with_child(f64s(&values)),
            ),
        ),
        (
            "other operation",
            SoapEnvelope::with_body(
                Element::component("d:Nope").with_namespace("d", bxsoap::LEAD_NS),
            ),
        ),
    ]
}

/// A valid `Verify` whose unknown `d:flag` leaf holds boolean byte 0x02,
/// which the tree decoder rejects, encoded with `enc`; a checksum
/// trailer is recomputed to cover the damaged byte.
fn bad_boolean_request(enc: &BxsaEncoding) -> Vec<u8> {
    let (index, values) = lead_dataset(1000, 9);
    let flagged = |flag: bool| {
        let request = verify_with(vec![
            Element::leaf("d:flag", AtomicValue::Bool(flag)),
            Element::array("d:index", ArrayValue::I32(index.clone())),
            Element::array("d:values", ArrayValue::F64(values.clone())),
        ]);
        enc.encode(&request.into_document()).unwrap()
    };
    // The boolean byte is the first byte where the two encodings differ.
    let mut bytes = flagged(true);
    let at = bytes
        .iter()
        .zip(flagged(false))
        .position(|(a, b)| *a != b)
        .unwrap();
    bytes[at] = 0x02;
    if enc.options.checksum {
        // The trailer's last four bytes: the CRC32C of everything before
        // the trailer, in the message's byte order.
        let covered = bytes.len() - 7;
        let crc = bxsa::crc32c::crc32c(&bytes[..covered]);
        let crc = match enc.options.byte_order {
            ByteOrder::Little => crc.to_le_bytes(),
            ByteOrder::Big => crc.to_be_bytes(),
        };
        bytes[covered + 3..].copy_from_slice(&crc);
    }
    let err = bxsa::decode(&bytes).unwrap_err();
    assert!(err.to_string().contains("boolean byte 0x02"), "{err}");
    bytes
}

#[test]
fn view_and_tree_paths_answer_byte_identically() {
    let encodings = [
        ("native", BxsaEncoding::native_order()),
        ("foreign", in_order(foreign_order())),
        ("checksummed", BxsaEncoding::native_order().with_checksum()),
    ];
    let mut view_registry = ServiceRegistry::new();
    bxsoap::register_verify(&mut view_registry);
    let view_registry = Arc::new(view_registry);
    for (enc_name, enc) in encodings {
        let view = SoapService::new(enc.clone(), Arc::clone(&view_registry));
        let tree = SoapService::new(enc.clone(), tree_only_registry());
        let mut requests: Vec<(String, Vec<u8>)> = request_shapes()
            .into_iter()
            .map(|(name, env)| (name.to_owned(), enc.encode(&env.into_document()).unwrap()))
            .collect();
        let valid = requests[0].1.clone();
        let mut corrupt = valid.clone();
        let middle = corrupt.len() / 2;
        corrupt[middle] ^= 0x40;
        requests.push(("corrupted payload".into(), corrupt));
        requests.push(("truncated".into(), valid[..valid.len() - 9].to_vec()));
        requests.push(("skipped bad boolean".into(), bad_boolean_request(&enc)));
        requests.push(("empty bytes".into(), Vec::new()));
        let xml = XmlEncoding::default()
            .encode(&verify_request_envelope(&[0], &[250.0]).into_document())
            .unwrap();
        requests.push(("xml bytes".into(), xml));
        for (name, request) in &requests {
            for shift in [0, 1] {
                let (buf, start) = placed(request, shift);
                let request = &buf[start..];
                let (mut view_out, mut tree_out) = (Vec::new(), Vec::new());
                let v = view.handle(&mut DecodeScratch::default(), request, &mut view_out);
                let t = tree.handle(&mut DecodeScratch::default(), request, &mut tree_out);
                let case = format!("{enc_name} {name} shifted {shift}");
                assert_eq!(view_out, tree_out, "{case}: replies differ");
                assert_eq!(v.is_fault, t.is_fault, "{case}");
                assert_eq!(v.retry_after, t.retry_after, "{case}");
                assert_eq!(v.reply_budget.is_some(), t.reply_budget.is_some(), "{case}");
            }
        }
    }
}

#[test]
fn a_corrupted_checksummed_request_never_reaches_the_view() {
    let (registry, seen) = recording_registry();
    let enc = BxsaEncoding::native_order().with_checksum();
    let service = SoapService::new(enc.clone(), registry);
    let (index, values) = lead_dataset(1000, 4);
    let request = enc
        .encode(&verify_request_envelope(&index, &values).into_document())
        .unwrap();
    let (mut buf, start) = placed(&request, 0);
    reply_of(&service, &buf[start..]);
    assert!(
        last_seen(&seen).borrowed,
        "the intact request takes the view"
    );

    // One flipped bit in the last reading: the frames still parse, the
    // checksum does not match.
    let last = start + request.len() - 16;
    buf[last] ^= 0x01;
    let mut out = Vec::new();
    let outcome = service.handle(&mut DecodeScratch::default(), &buf[start..], &mut out);
    assert!(outcome.is_fault);
    let fault = SoapEnvelope::from_document(&enc.decode(&out).unwrap())
        .unwrap()
        .as_fault()
        .expect("a checksum mismatch faults");
    assert_eq!(fault.code, FaultCode::Client);
    assert!(fault.string.contains("checksum"), "{}", fault.string);
    assert!(
        seen.lock().unwrap().is_empty(),
        "the handler saw a corrupted value"
    );
}
