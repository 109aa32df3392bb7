//! BXSA frames → bXDM.
//!
//! The tree decoder is the `frame::Cursor` plus an in-place
//! refill: it walks the frame stream in lockstep with an existing tree.

use bxdm::{
    ArrayValue, AtomicValue, Attribute, Content, Document, Element, NamespaceDecl, Node, QName,
    ScopeChain,
};

use crate::error::{BxsaError, BxsaResult};
use crate::frame::{read_array_into, Cursor, FrameType};
use crate::pull::{LeafValue, PullEvent};

/// Decode a complete BXSA document.
pub fn decode(bytes: &[u8]) -> BxsaResult<Document> {
    let mut doc = Document::new();
    decode_into(bytes, &mut doc)?;
    Ok(doc)
}

/// Decode a complete BXSA document *into* `doc`, reusing its storage.
///
/// Where [`decode`] builds every node, string, and array from scratch,
/// `decode_into` walks the existing tree in lockstep with the frame
/// stream and refills it: node slots are overwritten in place, `String`
/// and `Vec` capacity (names, namespace tables, attribute lists, child
/// lists, packed arrays) survives across messages, and packed-array
/// payloads land in reused `Vec<T>` capacity via one endian-aware bulk
/// copy. When the incoming message has the same shape as the previous
/// one — the steady state of a request/response service — the refill
/// performs zero heap allocations. Where shapes diverge, the decoder
/// falls back to fresh allocation for the divergent subtree only.
///
/// On error the contents of `doc` are unspecified (but memory-safe);
/// callers must treat the document as garbage until the next successful
/// decode.
pub fn decode_into(bytes: &[u8], doc: &mut Document) -> BxsaResult<()> {
    let mut c = Cursor::new(bytes);
    let (frame, count) = c.document()?;
    doc.children.truncate(count);
    if count > doc.children.len() {
        doc.children.reserve(count.min(1024) - doc.children.len());
    }
    for i in 0..count {
        if i == doc.children.len() {
            doc.children.push(blank_node());
        }
        fill_frame(&mut c, None, &mut doc.children[i])?;
    }
    c.finish(Some(&frame))
}

/// Decode a standalone element frame (the output of
/// [`crate::encoder::encode_element`]): the input must end after the
/// frame, or after one checksum frame covering it.
pub fn decode_element(bytes: &[u8]) -> BxsaResult<Element> {
    let mut node = blank_node();
    decode_element_into(bytes, &mut node)?;
    into_element(node)
}

/// [`decode_element`] into a reusable [`Node`] slot: contents are
/// replaced, but element/string/array storage from the previous part is
/// refilled in place, so decoding a stream of similarly-shaped parts is
/// allocation-free at steady state (the per-part mirror of
/// [`decode_into`]). On error the slot holds unspecified but valid
/// contents.
pub fn decode_element_into(bytes: &[u8], node: &mut Node) -> BxsaResult<()> {
    let mut c = Cursor::new(bytes);
    fill_frame(&mut c, None, node)?;
    c.finish(None)
}

/// Decode one element frame located at `offset` inside a larger document
/// buffer (e.g. a frame found by [`crate::scan::FrameScanner`]).
///
/// The whole buffer must be passed, not a slice of the frame: alignment
/// padding inside the frame is relative to the *document* start, so the
/// decoder has to see the true offsets.
pub fn decode_element_at(bytes: &[u8], offset: usize) -> BxsaResult<Element> {
    let mut c = Cursor::new(bytes);
    c.r.seek(offset)?;
    let mut node = blank_node();
    fill_frame(&mut c, None, &mut node)?;
    into_element(node)
}

fn into_element(node: Node) -> BxsaResult<Element> {
    match node {
        Node::Element(e) => Ok(e),
        other => Err(BxsaError::Structure {
            what: format!("expected an element frame, found {other:?}"),
        }),
    }
}

/// A placeholder node for growing a recycled child list; allocation-free
/// (`String::new` does not allocate) and immediately overwritten by
/// [`fill_frame`].
fn blank_node() -> Node {
    Node::Text(String::new())
}

/// Overwrite a `String` slot, reusing the existing capacity.
fn set_string(slot: &mut String, value: &str) {
    slot.clear();
    slot.push_str(value);
}

/// `$slot` as its `$variant` payload, first replacing it with
/// `$variant($fresh)` when it holds another variant.
macro_rules! slot_as {
    ($slot:expr, $variant:path, $fresh:expr) => {{
        if !matches!($slot, $variant(..)) {
            *$slot = $variant($fresh);
        }
        match $slot {
            $variant(v) => v,
            _ => unreachable!("just assigned"),
        }
    }};
}

/// Overwrite an atomic value slot; a string refills the slot's capacity.
fn fill_atomic(slot: &mut AtomicValue, value: LeafValue<'_>) {
    match (slot, value) {
        (AtomicValue::Str(s), LeafValue::Str(v)) => set_string(s, v),
        (slot, value) => *slot = value.to_atomic(),
    }
}

fn fill_frame(
    c: &mut Cursor<'_>,
    parent: Option<&ScopeChain<'_>>,
    slot: &mut Node,
) -> BxsaResult<()> {
    let frame = c.open()?;
    if frame.kind.is_element() {
        let el = slot_as!(slot, Node::Element, Element::component(""));
        fill_element(c, frame.kind, parent, el)?;
    } else {
        match (c.text(frame.kind)?, slot) {
            (PullEvent::Text(s), Node::Text(t)) | (PullEvent::Comment(s), Node::Comment(t)) => {
                set_string(t, s)
            }
            (PullEvent::Pi { target, data }, Node::Pi { target: t, data: d }) => {
                set_string(t, target);
                set_string(d, data);
            }
            (PullEvent::Text(s), slot) => *slot = Node::Text(s.to_owned()),
            (PullEvent::Comment(s), slot) => *slot = Node::Comment(s.to_owned()),
            (PullEvent::Pi { target, data }, slot) => {
                *slot = Node::Pi {
                    target: target.to_owned(),
                    data: data.to_owned(),
                }
            }
            _ => unreachable!("text-like frames read as text events"),
        }
    }
    c.close(&frame)
}

fn fill_element(
    c: &mut Cursor<'_>,
    kind: FrameType,
    parent: Option<&ScopeChain<'_>>,
    el: &mut Element,
) -> BxsaResult<()> {
    // Namespace symbol table, refilled slot-by-slot into the element's
    // own `namespaces` Vec; during recursion the scope chain borrows it
    // from the element being filled, so namespace tracking needs no side
    // allocations and no final clone.
    let n = c.decls()?;
    el.namespaces.truncate(n);
    for i in 0..n {
        let (prefix, uri) = c.decl()?;
        match el.namespaces.get_mut(i) {
            Some(decl) => {
                match (&mut decl.prefix, prefix) {
                    (Some(s), Some(p)) => set_string(s, p),
                    (slot, p) => *slot = p.map(str::to_owned),
                }
                set_string(&mut decl.uri, uri);
            }
            None => el.namespaces.push(NamespaceDecl {
                prefix: prefix.map(str::to_owned),
                uri: uri.to_owned(),
            }),
        }
    }
    // Disjoint-field split: the chain immutably borrows `namespaces`
    // while the name, attributes, and content slots are refilled.
    let Element {
        name,
        namespaces,
        attributes,
        content,
    } = el;
    let chain = match parent {
        Some(p) => p.child(namespaces),
        None => ScopeChain::root(namespaces),
    };
    let fill_qname = |c: &mut Cursor<'_>, slot: &mut QName| -> BxsaResult<()> {
        let n = c.name()?;
        slot.set(n.resolve(|r| chain.lookup_ref(r))?, n.local);
        Ok(())
    };
    fill_qname(c, name)?;
    let n = c.attrs()?;
    attributes.truncate(n);
    for i in 0..n {
        if i == attributes.len() {
            attributes.push(Attribute {
                name: QName::new(None, ""),
                value: AtomicValue::Bool(false),
            });
        }
        fill_qname(c, &mut attributes[i].name)?;
        fill_atomic(&mut attributes[i].value, c.value()?);
    }
    match kind {
        FrameType::Leaf => {
            let value = c.value()?;
            fill_atomic(
                slot_as!(content, Content::Leaf, AtomicValue::Bool(false)),
                value,
            );
        }
        FrameType::Array => {
            let (code, len) = c.array_head()?;
            let slot = slot_as!(content, Content::Array, ArrayValue::U8(Vec::new()));
            read_array_into(&mut c.r, code, len, slot)?;
        }
        _ => {
            let count = c.children()?;
            let children = slot_as!(content, Content::Children, Vec::new());
            children.truncate(count);
            if count > children.len() {
                children.reserve(count.min(4096) - children.len());
            }
            for i in 0..count {
                if i == children.len() {
                    children.push(blank_node());
                }
                fill_frame(c, Some(&chain), &mut children[i])?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::{encode, encode_element, encode_with, EncodeOptions};
    use xbs::{ByteOrder, TypeCode};

    fn sample_doc() -> Document {
        Document::with_root(
            Element::component("d:set")
                .with_namespace("d", "http://example.org/data")
                .with_attr("run", "7")
                .with_child(Element::leaf("d:count", AtomicValue::I32(2)))
                .with_child(Element::array(
                    "d:values",
                    ArrayValue::F64(vec![0.25, -1.5]),
                ))
                .with_text("note")
                .with_comment("end"),
        )
    }

    #[test]
    fn roundtrip_sample() {
        let doc = sample_doc();
        let bytes = encode(&doc).unwrap();
        assert_eq!(decode(&bytes).unwrap(), doc);
    }

    #[test]
    fn roundtrip_big_endian() {
        let doc = sample_doc();
        let bytes = encode_with(
            &doc,
            &EncodeOptions {
                byte_order: ByteOrder::Big,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(decode(&bytes).unwrap(), doc);
    }

    #[test]
    fn nested_namespace_scopes_roundtrip() {
        let doc = Document::with_root(
            Element::component("a:r")
                .with_namespace("a", "http://a")
                .with_child(
                    Element::component("b:mid")
                        .with_namespace("b", "http://b")
                        .with_child(Element::leaf("a:deep", AtomicValue::Bool(false))),
                ),
        );
        let bytes = encode(&doc).unwrap();
        assert_eq!(decode(&bytes).unwrap(), doc);
    }

    #[test]
    fn shadowed_prefix_resolves_innermost() {
        let doc = Document::with_root(
            Element::component("p:r")
                .with_namespace("p", "http://outer")
                .with_child(
                    Element::component("p:inner").with_namespace("p", "http://inner"),
                ),
        );
        let bytes = encode(&doc).unwrap();
        let back = decode(&bytes).unwrap();
        assert_eq!(back, doc);
    }

    #[test]
    fn truncated_input_errors_cleanly() {
        let bytes = encode(&sample_doc()).unwrap();
        for cut in [0, 1, 2, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode(&bytes[..cut]).is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn corrupted_type_codes_error() {
        let mut bytes = encode(&Document::with_root(Element::leaf(
            "n",
            AtomicValue::I32(5),
        )))
        .unwrap();
        // Find the I32 type code and corrupt it to an unassigned code.
        let pos = bytes.iter().position(|&b| b == TypeCode::I32 as u8).unwrap();
        bytes[pos] = 0x3f;
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = encode(&sample_doc()).unwrap();
        bytes.push(0xaa);
        assert!(matches!(
            decode(&bytes),
            Err(BxsaError::Structure { .. })
        ));
    }

    #[test]
    fn depth_limit_enforced() {
        let nested = |levels: usize| {
            let mut e = Element::component("leafmost");
            for _ in 1..levels {
                e = Element::component("wrap").with_child(e);
            }
            encode(&Document::with_root(e)).unwrap()
        };
        assert!(decode(&nested(crate::MAX_DEPTH)).is_ok());
        assert!(matches!(
            decode(&nested(crate::MAX_DEPTH + 1)),
            Err(BxsaError::Structure { .. })
        ));
    }

    #[test]
    fn standalone_element_roundtrip() {
        let e = Element::array("v", ArrayValue::U8(vec![1, 2, 3]));
        let bytes = encode_element(&e, &EncodeOptions::default()).unwrap();
        assert_eq!(decode_element(&bytes).unwrap(), e);
    }

    #[test]
    fn empty_document_roundtrips() {
        let doc = Document::new();
        let bytes = encode(&doc).unwrap();
        assert_eq!(decode(&bytes).unwrap(), doc);
    }

    #[test]
    fn all_array_types_roundtrip() {
        let arrays = vec![
            ArrayValue::I8(vec![-1, 2]),
            ArrayValue::U8(vec![3, 4]),
            ArrayValue::I16(vec![-5]),
            ArrayValue::U16(vec![6]),
            ArrayValue::I32(vec![-7, 8, 9]),
            ArrayValue::U32(vec![10]),
            ArrayValue::I64(vec![i64::MIN]),
            ArrayValue::U64(vec![u64::MAX]),
            ArrayValue::F32(vec![0.5]),
            ArrayValue::F64(vec![std::f64::consts::E]),
        ];
        for a in arrays {
            let doc = Document::with_root(Element::array("v", a));
            let bytes = encode(&doc).unwrap();
            assert_eq!(decode(&bytes).unwrap(), doc);
        }
    }

    /// The transcode-matrix corpus: every content kind, atomic type,
    /// array type, byte order, and namespace shape the codec supports.
    fn corpus() -> Vec<Vec<u8>> {
        let mut docs = vec![Document::new(), sample_doc()];
        docs.push(Document::with_root(
            Element::component("d:set")
                .with_namespace("d", "http://example.org/data")
                .with_attr("run", "9")
                .with_child(Element::leaf("d:count", AtomicValue::I32(3)))
                .with_child(Element::leaf("d:mean", AtomicValue::F64(0.1 + 0.2)))
                .with_child(Element::array(
                    "d:values",
                    ArrayValue::F64(vec![1.5, -2.25, 3.0e-9]),
                ))
                .with_child(Element::array("d:index", ArrayValue::I32(vec![0, 1, 2]))),
        ));
        for a in [
            ArrayValue::I8(vec![-1, 2]),
            ArrayValue::U8(vec![3, 4]),
            ArrayValue::I16(vec![-5]),
            ArrayValue::U16(vec![6]),
            ArrayValue::I32(vec![-7, 8, 9]),
            ArrayValue::U32(vec![10]),
            ArrayValue::I64(vec![i64::MIN]),
            ArrayValue::U64(vec![u64::MAX]),
            ArrayValue::F32(vec![0.5]),
            ArrayValue::F64(vec![]),
        ] {
            docs.push(Document::with_root(Element::array("v", a)));
        }
        for v in [
            AtomicValue::Str("héllo <xml>".into()),
            AtomicValue::Bool(true),
            AtomicValue::F64(-0.0),
            AtomicValue::I64(-(1 << 50)),
        ] {
            docs.push(Document::with_root(Element::leaf("n", v)));
        }
        docs.push(Document::with_root(
            Element::component("a:r")
                .with_namespace("a", "http://a")
                .with_child(
                    Element::component("b:mid")
                        .with_namespace("b", "http://b")
                        .with_child(Element::leaf("a:deep", AtomicValue::Bool(false))),
                ),
        ));
        let mut out = Vec::new();
        for doc in &docs {
            for order in [ByteOrder::Little, ByteOrder::Big] {
                out.push(encode_with(doc, &EncodeOptions { byte_order: order, ..Default::default() }).unwrap());
            }
        }
        out
    }

    /// `decode_into` must be observationally identical to `decode`, both
    /// on a fresh document and on one still holding any *other* corpus
    /// document's tree (the dirty-slot case where shapes diverge).
    #[test]
    fn decode_into_matches_decode_on_corpus() {
        let corpus = corpus();
        let mut recycled = Document::new();
        for (i, bytes) in corpus.iter().enumerate() {
            let fresh = decode(bytes).unwrap();
            let mut target = Document::new();
            decode_into(bytes, &mut target).unwrap();
            assert_eq!(target, fresh, "fresh-target mismatch on corpus[{i}]");
            // The recycled document carries whatever the previous
            // iteration left in it.
            decode_into(bytes, &mut recycled).unwrap();
            assert_eq!(recycled, fresh, "dirty-target mismatch on corpus[{i}]");
        }
    }

    /// Same-shape refill must not reallocate the payload of a large
    /// packed array: the array Vec's address is stable across messages.
    #[test]
    fn decode_into_reuses_array_storage() {
        let doc = Document::with_root(Element::array(
            "v",
            ArrayValue::F64((0..512).map(|i| i as f64).collect()),
        ));
        let bytes = encode(&doc).unwrap();
        let mut target = Document::new();
        decode_into(&bytes, &mut target).unwrap();
        let ptr = match target.root().unwrap().array_value().unwrap() {
            ArrayValue::F64(v) => v.as_ptr(),
            other => panic!("expected F64 array, got {other:?}"),
        };
        decode_into(&bytes, &mut target).unwrap();
        assert_eq!(target, doc);
        let ptr2 = match target.root().unwrap().array_value().unwrap() {
            ArrayValue::F64(v) => v.as_ptr(),
            other => panic!("expected F64 array, got {other:?}"),
        };
        assert_eq!(ptr, ptr2, "same-shape refill must reuse the array buffer");
    }

    /// A failed refill leaves the document in an unspecified-but-valid
    /// state and the next successful decode repairs it completely.
    #[test]
    fn decode_into_recovers_after_error() {
        let doc = sample_doc();
        let bytes = encode(&doc).unwrap();
        let mut target = Document::new();
        decode_into(&bytes, &mut target).unwrap();
        assert!(decode_into(&bytes[..bytes.len() / 2], &mut target).is_err());
        decode_into(&bytes, &mut target).unwrap();
        assert_eq!(target, doc);
    }

    #[test]
    fn all_atomic_types_roundtrip() {
        let values = vec![
            AtomicValue::I8(-1),
            AtomicValue::U8(200),
            AtomicValue::I16(-300),
            AtomicValue::U16(60000),
            AtomicValue::I32(12345),
            AtomicValue::U32(u32::MAX),
            AtomicValue::I64(-(1 << 50)),
            AtomicValue::U64(1 << 60),
            AtomicValue::F32(1.25),
            AtomicValue::F64(-0.0),
            AtomicValue::Str("héllo <xml>".into()),
            AtomicValue::Bool(true),
        ];
        for v in values {
            let doc = Document::with_root(Element::leaf("n", v));
            let bytes = encode(&doc).unwrap();
            assert_eq!(decode(&bytes).unwrap(), doc);
        }
    }

    #[test]
    fn decode_element_into_refills_in_place() {
        let part = |i: usize| {
            Element::component("p:part")
                .with_namespace("p", "http://example.org/parts")
                .with_child(Element::leaf("p:seq", AtomicValue::I64(i as i64)))
                .with_child(Element::array(
                    "p:data",
                    ArrayValue::F64((0..16).map(|j| (i * 16 + j) as f64).collect()),
                ))
        };
        let mut node = Node::Text(String::new());
        for i in 0..4 {
            let bytes = encode_element(&part(i), &EncodeOptions::default()).unwrap();
            decode_element_into(&bytes, &mut node).unwrap();
            match &node {
                Node::Element(e) => assert_eq!(*e, part(i)),
                other => panic!("expected element, got {other:?}"),
            }
        }
    }
}
