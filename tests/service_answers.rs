//! One answer per request, whichever handler kind serves it. A `Verify`
//! service built from the tree handler and its view (`register_verify`)
//! and one built from the typed handler alone (`register_verify_typed`)
//! give the same fault class for the same malformed request, read one
//! `bx:Deadline` number language, take the first of repeated arrays,
//! read past a foreign header, check what they skip as the tree decoder
//! does, and answer a reply they cannot encode with an encoded Server
//! fault, on both wire encodings.

use std::sync::Arc;

use bxdm::{ArrayValue, AtomicValue, Element};
use bxsa::{FrameWriter, TypedName};
use bxsoap::{lead_dataset, verify_request_envelope, VerifyRequest, VerifyView, LEAD_NS};
use soap::{
    BxsaEncoding, DecodeScratch, EncodingPolicy, FaultCode, ServiceRegistry, SoapEnvelope,
    SoapResult, SoapService, ToBxsa, TypedEncoding, XmlEncoding,
};
use xmltext::XmlFieldWriter;

/// How one service answered one request: `Ok(verified)` for a
/// `VerifyResponse`, or the fault's code and string.
type Answer = Result<bool, (FaultCode, String)>;

/// Serve `request` once and read the reply back with the tree decoder.
fn answer<E: EncodingPolicy>(service: &SoapService<E>, request: &SoapEnvelope) -> Answer {
    let bytes = service.encoding().encode(&request.to_document()).unwrap();
    answer_bytes(service, &bytes)
}

/// Serve the encoded request `bytes` once and read the reply back with
/// the tree decoder.
fn answer_bytes<E: EncodingPolicy>(service: &SoapService<E>, bytes: &[u8]) -> Answer {
    let enc = service.encoding();
    let mut out = Vec::new();
    let outcome = service.handle(&mut DecodeScratch::default(), bytes, &mut out);
    let doc = enc
        .decode(&out)
        .expect("every answer is an encoded envelope");
    let reply = SoapEnvelope::from_document(&doc).unwrap();
    match reply.as_fault() {
        Some(fault) => {
            assert!(outcome.is_fault, "a fault reply must be flagged as one");
            Err((fault.code, fault.string))
        }
        None => {
            assert!(!outcome.is_fault, "a reply must not be flagged as a fault");
            let body = reply.body_element().expect("a reply has a body entry");
            Ok(body.child_value("ok") == Some(&AtomicValue::Bool(true)))
        }
    }
}

/// The two `Verify` services over `enc`: tree handler and view, and the
/// typed handler alone.
fn services<E>(enc: E) -> [(&'static str, SoapService<E>); 2]
where
    E: TypedEncoding + Clone + Send + Sync + 'static,
{
    let mut registry = ServiceRegistry::new();
    bxsoap::register_verify(&mut registry);
    let view_and_tree = SoapService::new(enc.clone(), Arc::new(registry));
    let mut typed_only = SoapService::new(enc, Arc::new(ServiceRegistry::new()));
    bxsoap::register_verify_typed(&mut typed_only);
    [("view+tree", view_and_tree), ("typed-only", typed_only)]
}

/// Every answer `request` gets: both services on both encodings.
fn answers(request: &SoapEnvelope) -> Vec<(String, Answer)> {
    let bxsa = services(BxsaEncoding::default())
        .map(|(kind, s)| (format!("{kind} bxsa"), answer(&s, request)));
    let xml = services(XmlEncoding::default())
        .map(|(kind, s)| (format!("{kind} xml"), answer(&s, request)));
    bxsa.into_iter().chain(xml).collect()
}

fn small_verify() -> SoapEnvelope {
    let (index, values) = lead_dataset(4, 3);
    verify_request_envelope(&index, &values)
}

/// A `Verify` with no `index` array, or whose first `index` or `values`
/// is not an array of the right type, is the sender's mistake, so every
/// handler kind answers it with one Client fault and one string: the
/// view declines it to the tree handler, whose error maps as the typed
/// decode's does.
#[test]
fn a_request_missing_its_index_array_is_one_client_fault_everywhere() {
    let index = || Element::array("d:index", ArrayValue::I32(vec![0]));
    let values = || Element::array("d:values", ArrayValue::F64(vec![200.0]));
    // A first `index` or `values` that is not an array of the right type
    // is as missing as an absent one.
    let cases = [
        ("no index", vec![values()], "missing index array"),
        (
            "i32 values",
            vec![index(), Element::array("d:values", ArrayValue::I32(vec![200]))],
            "missing values array",
        ),
        (
            "f64 index",
            vec![Element::array("d:index", ArrayValue::F64(vec![0.0])), values()],
            "missing index array",
        ),
        (
            "values leaf",
            vec![index(), Element::leaf("d:values", AtomicValue::F64(200.0))],
            "missing values array",
        ),
    ];
    for (case, children, missing) in cases {
        let request = SoapEnvelope::with_body(
            children.into_iter().fold(
                Element::component("d:Verify").with_namespace("d", LEAD_NS),
                Element::with_child,
            ),
        );
        let all = answers(&request);
        for (cell, got) in &all {
            match got {
                Err((FaultCode::Client, string)) => {
                    assert!(string.contains(missing), "{case}, {cell}: {string}")
                }
                other => panic!("{case}, {cell}: expected a Client fault, got {other:?}"),
            }
        }
        assert!(all.windows(2).all(|w| w[0].1 == w[1].1), "{case}: {all:#?}");
    }
}

fn budget(value: AtomicValue) -> Element {
    Element::leaf("bx:budgetMillis", value)
}

fn hops(value: AtomicValue) -> Element {
    Element::leaf("bx:hops", value)
}

/// A `bx:Deadline` header entry holding `fields`.
fn deadline(fields: Vec<Element>) -> Element {
    fields
        .into_iter()
        .fold(Element::component("bx:Deadline"), Element::with_child)
}

/// The `bx:Deadline` spelling table: each row's header entries, and
/// whether the header is read (the request is then served) or refused
/// (a Client fault). Every service on every encoding must decide every
/// row alike, with the same answer.
#[test]
fn every_handler_kind_reads_one_deadline_number_language() {
    use AtomicValue::*;
    let h8 = || hops(I64(8));
    let s = |t: &str| Str(t.to_owned());
    // One header entry: this `budgetMillis`, eight hops.
    let one = |b: Element| vec![deadline(vec![b, h8()])];
    // A `budgetMillis` element with no type annotation.
    let bare = || Element::component("bx:budgetMillis");
    let rows: Vec<(&str, Vec<Element>, bool)> = vec![
        ("i64", one(budget(I64(5_000))), true),
        ("i32", one(budget(I32(5_000))), true),
        ("i16", one(budget(I16(5_000))), true),
        ("i8", one(budget(I8(100))), true),
        ("u8", one(budget(U8(200))), true),
        ("u16", one(budget(U16(5_000))), true),
        ("u32", one(budget(U32(5_000))), true),
        ("u64", one(budget(U64(5_000))), true),
        ("u64 max", one(budget(U64(u64::MAX))), true),
        ("string", one(budget(s("5000"))), true),
        ("padded string", one(budget(s(" 5000 "))), true),
        ("plus-signed string", one(budget(s("+5000"))), true),
        ("leading zeros", one(budget(s("05000"))), true),
        ("untyped text", one(bare().with_text("5000")), true),
        ("negative i64", one(budget(I64(-1))), false),
        ("negative i32", one(budget(I32(-5))), false),
        ("negative string", one(budget(s("-1"))), false),
        ("word", one(budget(s("soon"))), false),
        ("empty string", one(budget(s(""))), false),
        ("exponent string", one(budget(s("5e3"))), false),
        ("past u64", one(budget(s("18446744073709551616"))), false),
        ("f64", one(budget(F64(5_000.0))), false),
        ("f32", one(budget(F32(5_000.0))), false),
        ("bool", one(budget(Bool(true))), false),
        (
            "array",
            one(Element::array(
                "bx:budgetMillis",
                ArrayValue::I64(vec![5_000]),
            )),
            false,
        ),
        (
            "nested element",
            one(bare().with_child(budget(I64(5_000)))),
            false,
        ),
        (
            "string hops",
            vec![deadline(vec![budget(I64(5_000)), hops(s("3"))])],
            true,
        ),
        (
            "i32 hops",
            vec![deadline(vec![budget(I64(5_000)), hops(I32(3))])],
            true,
        ),
        (
            "negative hops",
            vec![deadline(vec![budget(I64(5_000)), hops(I64(-1))])],
            false,
        ),
        ("no budget", vec![deadline(vec![h8()])], false),
        ("no hops", vec![deadline(vec![budget(I64(5_000))])], false),
        (
            "first budget read",
            vec![deadline(vec![budget(I64(5_000)), budget(s("x")), h8()])],
            true,
        ),
        (
            "first budget refused",
            vec![deadline(vec![budget(s("x")), budget(I64(5_000)), h8()])],
            false,
        ),
        (
            "first header read",
            vec![
                deadline(vec![budget(I32(5_000)), h8()]),
                deadline(vec![h8()]),
            ],
            true,
        ),
        (
            "first header refused",
            vec![
                deadline(vec![h8()]),
                deadline(vec![budget(I32(5_000)), h8()]),
            ],
            false,
        ),
    ];
    for (label, headers, served) in rows {
        let mut request = small_verify();
        request.headers = headers;
        let all = answers(&request);
        for (cell, got) in &all {
            match (served, got) {
                (true, Ok(true)) => {}
                (false, Err((FaultCode::Client, string))) if string.contains("bx:Deadline") => {}
                _ => panic!("{label}: {cell} answered {got:?}"),
            }
        }
        assert!(
            all.windows(2).all(|w| w[0].1 == w[1].1),
            "{label}: {all:#?}"
        );
    }

    // A spent budget is read, then refused at the arrival gate: one
    // Server fault everywhere.
    let mut request = small_verify();
    request.headers = one(budget(s("0")));
    let all = answers(&request);
    assert!(matches!(&all[0].1, Err((FaultCode::Server, _))), "{all:#?}");
    assert!(all.windows(2).all(|w| w[0].1 == w[1].1), "{all:#?}");
}

/// A typed reply whose element name uses a prefix nothing declares: it
/// cannot be encoded as BXSA.
#[derive(Default)]
struct UndeclaredReply;

impl ToBxsa for UndeclaredReply {
    fn element_name(&self) -> TypedName {
        TypedName::new(Some("zz"), "VerifyResponse")
    }
    fn bxsa_body_bound(&self) -> usize {
        64
    }
    fn encode_bxsa(&self, w: &mut FrameWriter) -> SoapResult<()> {
        w.begin_component(self.element_name(), &[], 0, self.bxsa_body_bound())?;
        w.end_component()?;
        Ok(())
    }
    fn encode_xml(&self, w: &mut XmlFieldWriter<'_>) {
        w.empty_component("zz:VerifyResponse", &[]);
    }
}

/// A tree reply under a prefix nothing declares: no BXSA encoding.
fn undeclared_tree_reply(_request: &SoapEnvelope) -> SoapResult<SoapEnvelope> {
    Ok(SoapEnvelope::with_body(Element::component(
        "zz:VerifyResponse",
    )))
}

/// A reply the service cannot encode is the service's failure: the
/// tree, view and typed handlers all answer it with an encoded Server
/// fault, flagged as a fault — never with a plain-text body no client
/// can decode.
#[test]
fn a_reply_that_cannot_be_encoded_is_an_encoded_server_fault() {
    let mut tree = ServiceRegistry::new();
    tree.register("Verify", undeclared_tree_reply);
    let mut view = ServiceRegistry::new();
    view.register("Verify", undeclared_tree_reply);
    view.register_view::<VerifyView<'static>, UndeclaredReply, _>("Verify", |_req, _resp| Ok(()));
    let mut typed = SoapService::new(BxsaEncoding::default(), Arc::new(ServiceRegistry::new()));
    typed.register_typed::<VerifyRequest, UndeclaredReply, _>("Verify", |_req, _resp| Ok(()));

    let request = small_verify();
    let cells = [
        (
            "tree",
            answer(
                &SoapService::new(BxsaEncoding::default(), Arc::new(tree)),
                &request,
            ),
        ),
        (
            "view",
            answer(
                &SoapService::new(BxsaEncoding::default(), Arc::new(view)),
                &request,
            ),
        ),
        ("typed", answer(&typed, &request)),
    ];
    for (cell, got) in cells {
        match got {
            Err((FaultCode::Server, string)) => {
                assert!(
                    string.contains("reply could not be encoded"),
                    "{cell}: {string}"
                )
            }
            other => panic!("{cell}: expected an encoded Server fault, got {other:?}"),
        }
    }
}

/// A `Verify` service over `enc` with `register_verify`'s tree handler
/// alone: the reference every other handler kind must answer like.
fn tree_only<E>(enc: E) -> SoapService<E>
where
    E: TypedEncoding + Clone + Send + Sync + 'static,
{
    let mut inner = ServiceRegistry::new();
    bxsoap::register_verify(&mut inner);
    let mut registry = ServiceRegistry::new();
    registry.register("Verify", move |req| Ok(inner.dispatch(req)));
    SoapService::new(enc, Arc::new(registry))
}

/// A `Verify` whose body entry holds `children`.
fn verify_with(children: Vec<Element>) -> SoapEnvelope {
    let body = children.into_iter().fold(
        Element::component("d:Verify").with_namespace("d", LEAD_NS),
        Element::with_child,
    );
    SoapEnvelope::with_body(body)
}

/// A skipped leaf is checked as the tree decoder reads it. The unknown
/// `d:flag` leaf of this BXSA `Verify` holds boolean byte 0x02: the tree
/// decoder rejects the message, so the view and the typed handler, which
/// skip the leaf, must answer the tree's Client fault, not serve it.
#[test]
fn a_skipped_leaf_with_a_bad_boolean_byte_is_the_tree_fault_everywhere() {
    let (index, values) = lead_dataset(4, 3);
    let flagged = |flag: bool| {
        let request = verify_with(vec![
            Element::leaf("d:flag", AtomicValue::Bool(flag)),
            Element::array("d:index", ArrayValue::I32(index.clone())),
            Element::array("d:values", ArrayValue::F64(values.clone())),
        ]);
        BxsaEncoding::default()
            .encode(&request.to_document())
            .unwrap()
    };
    // The boolean byte is the one byte where the two encodings differ.
    let mut request = flagged(true);
    let at = request
        .iter()
        .zip(flagged(false))
        .position(|(a, b)| *a != b)
        .unwrap();
    request[at] = 0x02;

    let expected = answer_bytes(&tree_only(BxsaEncoding::default()), &request);
    match &expected {
        Err((FaultCode::Client, string)) => {
            assert!(string.contains("boolean byte 0x02"), "{string}")
        }
        other => panic!("tree-only: expected a Client fault, got {other:?}"),
    }
    for (cell, service) in services(BxsaEncoding::default()) {
        assert_eq!(answer_bytes(&service, &request), expected, "{cell} bxsa");
    }
}

/// Every cell's answer equals the tree-only service's on the same
/// encoding, for `request` on both encodings.
fn assert_answers_like_the_tree(label: &str, request: &SoapEnvelope, served: bool) {
    let reference = [
        answer(&tree_only(BxsaEncoding::default()), request),
        answer(&tree_only(XmlEncoding::default()), request),
    ];
    for expected in &reference {
        assert_eq!(
            expected,
            &Ok(served),
            "{label}: tree-only answered {expected:?}"
        );
    }
    for (cell, got) in answers(request) {
        assert_eq!(got, Ok(served), "{label}: {cell}");
    }
}

/// Repeated arrays: the tree handler's `find_child` takes the first
/// `index` and the first `values`, so every handler kind reads the valid
/// first pair and ignores the later `index=[7]` and the NaN reading.
#[test]
fn every_handler_kind_reads_the_first_of_repeated_arrays() {
    let (index, values) = lead_dataset(4, 3);
    let mut nan = values.clone();
    nan[1] = f64::NAN;
    let request = verify_with(vec![
        Element::array("d:index", ArrayValue::I32(index)),
        Element::array("d:values", ArrayValue::F64(values)),
        Element::array("d:index", ArrayValue::I32(vec![7])),
        Element::array("d:values", ArrayValue::F64(nan)),
    ]);
    assert_answers_like_the_tree("duplicate arrays", &request, true);
}

/// A foreign header without attributes, here `x:Trace`, demands nothing
/// of the receiver: the tree path ignores it, and so does every other
/// handler kind, on both encodings.
#[test]
fn every_handler_kind_reads_past_a_foreign_header_without_attributes() {
    let mut request = small_verify();
    request.headers = vec![Element::component("x:Trace")
        .with_namespace("x", "urn:example:trace")
        .with_child(Element::leaf("x:id", AtomicValue::Str("t-1".into())))];
    assert_answers_like_the_tree("x:Trace header", &request, true);
}
