//! Frame-integrity acceptance tests: a bit-flipped checksummed BXSA
//! message must be rejected with a typed error — never decoded to wrong
//! values — on the tree decoder, the pull decoder and a streamed part,
//! while checksum-off output stays byte-identical to what
//! un-checksummed peers expect.

use bxdm::{ArrayValue, AtomicValue, Document, Element};
use bxsa::{
    decode, decode_element, encode, encode_element, encode_with, BxsaError, EncodeOptions,
    PullReader,
};
use soap::encoding::BxsaEncoding;
use soap::streaming::{PartScratch, StreamEncoding};
use soap::{DeadlineHeader, EncodingPolicy, TypedEncoding, TypedRequest, TypedScratch};
use xbs::ByteOrder;

fn sample_doc() -> Document {
    Document::with_root(
        Element::component("d:run")
            .with_namespace("d", "http://example.org/data")
            .with_child(Element::leaf("d:step", AtomicValue::I64(42)))
            .with_child(Element::leaf("d:name", AtomicValue::Str("field".into())))
            .with_child(Element::array(
                "d:values",
                ArrayValue::F64((0..48).map(f64::from).collect()),
            )),
    )
}

fn sample_part(i: usize) -> Element {
    Element::component("p:part")
        .with_namespace("p", "http://example.org/parts")
        .with_child(Element::leaf("p:seq", AtomicValue::I64(i as i64)))
        .with_child(Element::array(
            "p:data",
            ArrayValue::I32((0..32).map(|j| (i * 100 + j) as i32).collect()),
        ))
}

fn checksum_opts(order: ByteOrder) -> EncodeOptions {
    EncodeOptions {
        byte_order: order,
        checksum: true,
    }
}

#[test]
fn checksum_off_is_byte_identical_interop() {
    let doc = sample_doc();
    let plain = encode(&doc).unwrap();
    let defaulted = encode_with(&doc, &EncodeOptions::default()).unwrap();
    assert_eq!(plain, defaulted, "checksum must be strictly opt-in");
    // A checksummed message is the plain message plus exactly one
    // 7-byte trailing frame — nothing inside the document changes.
    let checked = encode_with(&doc, &checksum_opts(ByteOrder::Little)).unwrap();
    assert_eq!(&checked[..plain.len()], &plain[..]);
    assert_eq!(checked.len(), plain.len() + 7);
}

#[test]
fn checksummed_documents_roundtrip_both_orders() {
    let doc = sample_doc();
    for order in [ByteOrder::Little, ByteOrder::Big] {
        let bytes = encode_with(&doc, &checksum_opts(order)).unwrap();
        assert_eq!(decode(&bytes).unwrap(), doc, "tree decode, {order:?}");

        let mut reader = PullReader::new(&bytes).unwrap();
        let mut events = 0;
        while reader.next_event().unwrap().is_some() {
            events += 1;
        }
        assert!(events > 0, "pull decode must see events, {order:?}");
    }
}

#[test]
fn every_bit_flip_in_a_checksummed_document_is_rejected() {
    let doc = sample_doc();
    let bytes = encode_with(&doc, &checksum_opts(ByteOrder::Little)).unwrap();
    for byte in 0..bytes.len() {
        for bit in 0..8 {
            let mut corrupt = bytes.clone();
            corrupt[byte] ^= 1 << bit;
            // Tree decoder: must error — a successful decode would be
            // exactly the wrong-value hole the checksum closes.
            assert!(
                decode(&corrupt).is_err(),
                "tree decode accepted a flip at byte {byte} bit {bit}"
            );
            // Pull decoder: driving to completion must surface an error
            // before the stream reports a clean end.
            let mut errored = PullReader::new(&corrupt).is_err();
            if let Ok(mut r) = PullReader::new(&corrupt) {
                loop {
                    match r.next_event() {
                        Ok(Some(_)) => {}
                        Ok(None) => break,
                        Err(_) => {
                            errored = true;
                            break;
                        }
                    }
                }
            }
            assert!(errored, "pull decode accepted a flip at byte {byte} bit {bit}");
        }
    }

    // The typed fast path: a checksummed typed Verify request (with a
    // deadline header, so the header walk is covered too) is the tree
    // request's bytes, and a flip anywhere gives an error or a fallback
    // to the tree path — never a typed match on corrupted values.
    let enc = BxsaEncoding::default().with_checksum();
    let (index, values) = bxsoap::lead_dataset(16, 7);
    let request = bxsoap::VerifyRequest { index, values };
    let deadline = DeadlineHeader::new(5_000, 3);
    let mut envelope = bxsoap::verify_request_envelope(&request.index, &request.values);
    deadline.stamp(&mut envelope);
    let mut wire = Vec::new();
    enc.encode_typed(
        &request,
        Some(&deadline),
        &mut TypedScratch::default(),
        &mut wire,
    )
    .unwrap();
    assert_eq!(wire, enc.encode(&envelope.to_document()).unwrap());
    let mut out = bxsoap::VerifyRequest::default();
    assert_eq!(
        enc.decode_typed_request(&wire, &mut out).unwrap(),
        TypedRequest::Matched {
            deadline: Some(deadline)
        }
    );
    assert_eq!(out, request);
    for byte in 0..wire.len() {
        for bit in 0..8 {
            let mut corrupt = wire.clone();
            corrupt[byte] ^= 1 << bit;
            let outcome = enc.decode_typed_request(&corrupt, &mut out);
            assert!(
                !matches!(outcome, Ok(TypedRequest::Matched { .. })),
                "typed decode matched a flip at byte {byte} bit {bit}"
            );
        }
    }
}

#[test]
fn payload_corruption_reports_checksum_mismatch() {
    let doc = sample_doc();
    let bytes = encode_with(&doc, &checksum_opts(ByteOrder::Little)).unwrap();
    // Flip a bit deep in the packed f64 payload: structurally the frame
    // stays valid, so only the CRC can catch it.
    let mut corrupt = bytes.clone();
    let target = bytes.len() - 20;
    corrupt[target] ^= 0x10;
    match decode(&corrupt) {
        Err(BxsaError::ChecksumMismatch { stored, computed, .. }) => {
            assert_ne!(stored, computed);
        }
        other => panic!("expected ChecksumMismatch, got {other:?}"),
    }
}

#[test]
fn checksummed_element_frames_roundtrip_and_reject_flips() {
    let part = sample_part(3);
    let bytes = encode_element(&part, &checksum_opts(ByteOrder::Little)).unwrap();
    assert_eq!(decode_element(&bytes).unwrap(), part);
    for byte in 0..bytes.len() {
        let mut corrupt = bytes.clone();
        corrupt[byte] ^= 0x01;
        assert!(
            decode_element(&corrupt).is_err(),
            "element decode accepted a flip at byte {byte}"
        );
    }
}

#[test]
fn frame_writer_checksum_matches_tree_encoder() {
    // The typed fast path must emit the identical trailer so either
    // encoder's output verifies against either decoder.
    let doc = Document::with_root(
        Element::component("r").with_child(Element::leaf("n", AtomicValue::I32(7))),
    );
    let tree = encode_with(&doc, &checksum_opts(ByteOrder::Little)).unwrap();

    let leaf_body = bxsa::estimate::plain_leaf_body_bound("n", &[], xbs::TypeCode::I32, 0);
    let root_body =
        bxsa::estimate::plain_component_body_bound("r", &[], 1, bxsa::estimate::framed(leaf_body));
    let mut w = bxsa::FrameWriter::new(ByteOrder::Little);
    w.set_checksum(true);
    let mut buf = Vec::new();
    w.begin_document(&mut buf, 1, bxsa::FrameWriter::document_bound(root_body));
    w.begin_component(bxsa::TypedName::new(None, "r"), &[], 1, root_body)
        .unwrap();
    w.leaf(bxsa::TypedName::new(None, "n"), &[], 7i32).unwrap();
    w.end_component().unwrap();
    w.finish_document(&mut buf).unwrap();
    assert_eq!(buf, tree);
    assert_eq!(decode(&buf).unwrap(), doc);
}

#[test]
fn streamed_part_with_checksum_roundtrips_and_rejects_flips() {
    // The soap streaming path: parts encoded by a checksum-enabled
    // policy verify on decode_part, and a bit flip in transit becomes a
    // typed error instead of wrong values in the part payload.
    let enc = BxsaEncoding::default().with_checksum();
    let part = sample_part(9);
    let mut bytes = Vec::new();
    enc.encode_part_into(&part, &mut bytes).unwrap();

    let mut scratch = PartScratch::default();
    assert_eq!(*enc.decode_part(&bytes, &mut scratch).unwrap(), part);

    // A plain (un-checksummed) peer's parts still decode: transparent
    // negotiation means verification is strictly if-present.
    let plain_enc = BxsaEncoding::default();
    let mut plain = Vec::new();
    plain_enc.encode_part_into(&part, &mut plain).unwrap();
    assert_eq!(*enc.decode_part(&plain, &mut scratch).unwrap(), part);
    assert_eq!(bytes.len(), plain.len() + 7);

    for byte in 0..bytes.len() {
        let mut corrupt = bytes.clone();
        corrupt[byte] ^= 0x02;
        assert!(
            enc.decode_part(&corrupt, &mut scratch).is_err(),
            "decode_part accepted a flip at byte {byte}"
        );
    }
}

#[test]
fn checksum_frame_misuse_is_rejected() {
    let doc = sample_doc();
    let plain = encode(&doc).unwrap();
    let checked = encode_with(&doc, &checksum_opts(ByteOrder::Little)).unwrap();
    let trailer = &checked[plain.len()..];

    // A bare checksum frame with nothing to cover, as a document or as a
    // streamed part.
    assert!(decode(trailer).is_err());
    assert!(decode_element(trailer).is_err());

    // Two checksum frames: the second has only a checksum frame before
    // it, which is not a coverable frame sequence start.
    let mut doubled = checked.clone();
    doubled.extend_from_slice(trailer);
    assert!(decode(&doubled).is_err());

    // Truncated checksum frame at end of input.
    let mut cut = checked.clone();
    cut.truncate(plain.len() + 3);
    assert!(decode(&cut).is_err());
}
