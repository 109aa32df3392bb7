//! # BXSA — Binary XML for Scientific Applications
//!
//! The binary serialization of the bXDM model from the HPDC 2006 paper
//! (§4, Figure 2). A BXSA document is a sequence of **frames**, one per
//! bXDM node; container frames embed their children recursively, so the
//! tree structure *is* the embedding structure.
//!
//! Every frame starts with a **common frame prefix**: one byte holding a
//! 2-bit byte-order code (endianness is recorded *per frame*, so a frame
//! can be embedded in a container of different endianness unchanged) and a
//! 6-bit frame-type code, followed by the frame's total size as a
//! variable-length integer. The size field enables **accelerated
//! sequential access** — frames can be skipped without parsing their
//! bodies (see [`scan`]).
//!
//! The payload of an array frame is a naturally-aligned packed run of
//! numbers, so a receiver on a same-endian machine can *view* the data in
//! place with zero copies (see [`scan::array_payload_view`] and the
//! `zero_copy` bench).
//!
//! Namespaces are tokenized: each element frame carries its namespace
//! declarations as a symbol table, and every qualified name refers to the
//! declaring table by *(scope depth, index)* instead of repeating prefix
//! strings (§4.1).
//!
//! The tree codec ([`decode`], [`encode`]), the [`pull`] reader, the
//! [`typed`] field reader and writer and the [`scan`]ner all parse and
//! write frames through one core in [`frame`], so every reader checks
//! the same things and accepts the same bytes; frame nesting is capped
//! at [`MAX_DEPTH`] on every path. A streamed message needs no framing
//! of its own: each part is one standalone element frame, which carries
//! its size, and decodes with [`decode_element_into`].
//!
//! ```
//! use bxdm::{Document, Element, AtomicValue, ArrayValue};
//!
//! let doc = Document::with_root(
//!     Element::component("d:set")
//!         .with_namespace("d", "http://example.org/data")
//!         .with_child(Element::leaf("d:count", AtomicValue::I32(3)))
//!         .with_child(Element::array("d:values", ArrayValue::F64(vec![1.0, 2.0, 3.0]))),
//! );
//! let bytes = bxsa::encode(&doc).unwrap();
//! let back = bxsa::decode(&bytes).unwrap();
//! assert_eq!(back, doc);
//! ```

#![forbid(unsafe_code)]

pub mod crc32c;
pub mod decoder;
pub mod encoder;
pub mod error;
pub mod estimate;
pub mod frame;
pub mod pull;
pub mod scan;
pub mod scatter;
pub mod transcode;
pub mod typed;
mod wellformed;

pub use decoder::{decode, decode_element, decode_element_at, decode_element_into, decode_into};
pub use encoder::{
    encode, encode_element, encode_element_into, encode_into, encode_into_with, encode_parts_into,
    encode_with, EncodeOptions,
};
pub use error::{BxsaError, BxsaResult};
pub use frame::{FrameType, MAX_DEPTH, MAX_REFS};
pub use pull::{ArrayHandle, ElementStart, LeafValue, PullEvent, PullReader};
pub use scan::FrameScanner;
pub use scatter::Scatter;
pub use transcode::{bxsa_to_xml, xml_to_bxsa};
pub use typed::{ElementHead, FieldReader, FrameWriter, TypedDecl, TypedName};

#[cfg(test)]
mod roundtrip_tests {
    use bxdm::{ArrayValue, AtomicValue, Document, Element, Node};
    use proptest::prelude::*;
    use xbs::ByteOrder;

    use crate::{decode, encode, encode_into, encode_with, EncodeOptions};

    /// Strategy producing arbitrary (namespace-well-formed) bXDM trees.
    fn arb_leaf_value() -> impl Strategy<Value = AtomicValue> {
        prop_oneof![
            any::<i8>().prop_map(AtomicValue::I8),
            any::<u16>().prop_map(AtomicValue::U16),
            any::<i32>().prop_map(AtomicValue::I32),
            any::<i64>().prop_map(AtomicValue::I64),
            any::<f32>().prop_map(AtomicValue::F32),
            any::<f64>().prop_map(AtomicValue::F64),
            "[a-zA-Z0-9 .,;]{0,24}".prop_map(AtomicValue::Str),
            any::<bool>().prop_map(AtomicValue::Bool),
        ]
    }

    fn arb_array_value() -> impl Strategy<Value = ArrayValue> {
        prop_oneof![
            proptest::collection::vec(any::<i32>(), 0..64).prop_map(ArrayValue::I32),
            proptest::collection::vec(any::<f64>(), 0..64).prop_map(ArrayValue::F64),
            proptest::collection::vec(any::<u8>(), 0..64).prop_map(ArrayValue::U8),
            proptest::collection::vec(any::<f32>(), 0..64).prop_map(ArrayValue::F32),
        ]
    }

    fn arb_name() -> impl Strategy<Value = String> {
        "[a-z][a-z0-9]{0,6}"
    }

    fn arb_element(depth: u32) -> impl Strategy<Value = Element> {
        let leaf_like = prop_oneof![
            (arb_name(), arb_leaf_value()).prop_map(|(n, v)| Element::leaf(n.as_str(), v)),
            (arb_name(), arb_array_value()).prop_map(|(n, v)| Element::array(n.as_str(), v)),
            arb_name().prop_map(|n| Element::component(n.as_str())),
        ];
        leaf_like.prop_recursive(depth, 24, 4, |inner| {
            (
                arb_name(),
                proptest::collection::vec(
                    prop_oneof![
                        inner.prop_map(Node::Element),
                        "[a-zA-Z ]{1,10}".prop_map(Node::Text),
                        "[a-zA-Z ]{0,10}".prop_map(Node::Comment),
                    ],
                    0..4,
                ),
                proptest::option::of(("[a-z]{1,4}", "[a-z:/.]{1,12}")),
            )
                .prop_map(|(name, children, ns)| {
                    let mut e = match ns {
                        Some((prefix, uri)) => Element::component(format!("{prefix}:{name}"))
                            .with_namespace(&prefix, &uri),
                        None => Element::component(name.as_str()),
                    };
                    for c in children {
                        e.push_node(c);
                    }
                    e
                })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn arbitrary_trees_roundtrip(root in arb_element(3)) {
            let doc = Document::with_root(root);
            let bytes = encode(&doc).unwrap();
            let back = decode(&bytes).unwrap();
            prop_assert_eq!(back, doc);
        }

        #[test]
        fn big_endian_roundtrips(root in arb_element(2)) {
            let doc = Document::with_root(root);
            let opts = EncodeOptions { byte_order: ByteOrder::Big, ..Default::default() };
            let bytes = encode_with(&doc, &opts).unwrap();
            let back = decode(&bytes).unwrap();
            prop_assert_eq!(back, doc);
        }

        #[test]
        fn encode_into_matches_encode(root in arb_element(3)) {
            let doc = Document::with_root(root);
            let owned = encode(&doc).unwrap();
            // A dirty, pre-grown buffer must produce identical bytes.
            let mut buf = vec![0xee; 32];
            encode_into(&doc, &mut buf).unwrap();
            prop_assert_eq!(&buf, &owned);
            // And again, reusing the now-larger buffer.
            encode_into(&doc, &mut buf).unwrap();
            prop_assert_eq!(&buf, &owned);
        }

        #[test]
        fn encoding_is_deterministic(root in arb_element(2)) {
            let doc = Document::with_root(root);
            let a = encode(&doc).unwrap();
            let b = encode(&doc).unwrap();
            prop_assert_eq!(a.clone(), b);
            // decode → re-encode is also byte-identical (transcodability
            // prerequisite, paper §4.2).
            let back = decode(&a).unwrap();
            prop_assert_eq!(encode(&back).unwrap(), a);
        }
    }
}
