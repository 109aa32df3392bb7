//! bXDM → BXSA frames: a recursive walk over the tree, writing through
//! the shared `frame::Out` frame writer. Open frames live on the
//! recursion stack and namespace references resolve through a
//! [`ScopeChain`] on that stack, so encoding allocates nothing beyond the
//! output buffer.

use bxdm::{ArrayValue, Content, Document, Element, Node, ScopeChain};
use xbs::{ByteOrder, XbsWriter};

use crate::error::BxsaResult;
use crate::estimate::{body_bound, document_body_bound, element_body_bound};
use crate::frame::{FrameType, Out};

/// Encoding options.
#[derive(Debug, Clone, Default)]
pub struct EncodeOptions {
    /// Byte order to encode numeric data in. Defaults to little-endian;
    /// encoding in the machine's native order keeps the zero-copy read
    /// path available on the receiver when architectures match.
    pub byte_order: ByteOrder,
    /// Append a CRC32C integrity-checksum frame after the top-level
    /// frame. Off by default. Decoders verify the checksum when present
    /// and accept its absence, so checksummed and plain peers interop
    /// without negotiation.
    pub checksum: bool,
}

/// Encode a document with default options (little-endian).
pub fn encode(doc: &Document) -> BxsaResult<Vec<u8>> {
    encode_with(doc, &EncodeOptions::default())
}

/// Encode a document with explicit options.
pub fn encode_with(doc: &Document, opts: &EncodeOptions) -> BxsaResult<Vec<u8>> {
    // Pre-size the output from the estimate: one allocation for the
    // common case.
    let mut buf = Vec::with_capacity(document_body_bound(&doc.children) + 12);
    encode_into_with(doc, opts, &mut buf)?;
    Ok(buf)
}

/// Encode a document into a caller-provided buffer with default options.
///
/// The buffer is cleared first but keeps its capacity, so cycling the same
/// buffer through repeated calls reaches a steady state with **zero heap
/// allocations per message** (the property the `bench` crate's counting
/// allocator asserts). On error the buffer is left cleared.
pub fn encode_into(doc: &Document, buf: &mut Vec<u8>) -> BxsaResult<()> {
    encode_into_with(doc, &EncodeOptions::default(), buf)
}

/// Encode a document into a caller-provided buffer with explicit options.
pub fn encode_into_with(doc: &Document, opts: &EncodeOptions, buf: &mut Vec<u8>) -> BxsaResult<()> {
    encode_frame(opts, buf, |out| {
        let frame = out.open(FrameType::Document, document_body_bound(&doc.children));
        out.0.put_vls(doc.children.len() as u64);
        for child in &doc.children {
            write_node(out, child, None)?;
        }
        out.close(frame);
        Ok(())
    })
}

/// Encode a single element as a standalone frame sequence (no document
/// frame). Used by tests and by intermediaries re-framing message parts.
pub fn encode_element(element: &Element, opts: &EncodeOptions) -> BxsaResult<Vec<u8>> {
    let mut buf = Vec::with_capacity(crate::estimate::framed(element_body_bound(element)));
    encode_element_into(element, opts, &mut buf)?;
    Ok(buf)
}

/// [`encode_element`] into a caller-provided buffer (cleared first,
/// capacity kept).
pub fn encode_element_into(
    element: &Element,
    opts: &EncodeOptions,
    buf: &mut Vec<u8>,
) -> BxsaResult<()> {
    encode_frame(opts, buf, |out| write_element(out, element, None))
}

/// Write one top-level frame with `write` into `buf` (cleared, capacity
/// kept), then the checksum trailer when `opts` asks for it. On error
/// the buffer is left cleared.
fn encode_frame(
    opts: &EncodeOptions,
    buf: &mut Vec<u8>,
    write: impl FnOnce(&mut Out) -> BxsaResult<()>,
) -> BxsaResult<()> {
    let mut out = Out(XbsWriter::from_buf(std::mem::take(buf), opts.byte_order));
    let result = write(&mut out);
    if result.is_ok() && opts.checksum {
        out.checksum();
    }
    *buf = out.0.take_buf();
    if result.is_err() {
        buf.clear();
    }
    result
}

fn write_node(out: &mut Out, node: &Node, parent: Option<&ScopeChain<'_>>) -> BxsaResult<()> {
    let (kind, first, second) = match node {
        Node::Element(e) => return write_element(out, e, parent),
        Node::Text(t) => (FrameType::CharData, t, None),
        Node::Comment(c) => {
            crate::wellformed::check_comment(c)?;
            (FrameType::Comment, c, None)
        }
        Node::Pi { target, data } => {
            crate::wellformed::check_pi(target, data)?;
            (FrameType::Pi, target, Some(data))
        }
    };
    let frame = out.open(kind, body_bound(node));
    out.0.put_str(first);
    if let Some(second) = second {
        out.0.put_str(second);
    }
    out.close(frame);
    Ok(())
}

fn write_element(out: &mut Out, e: &Element, parent: Option<&ScopeChain<'_>>) -> BxsaResult<()> {
    let kind = match &e.content {
        Content::Children(_) => FrameType::Component,
        Content::Leaf(_) => FrameType::Leaf,
        Content::Array(_) => FrameType::Array,
    };
    let frame = out.open(kind, element_body_bound(e));
    // Namespace symbol table ("Repeated N1 times" in Figure 2).
    out.0.put_vls(e.namespaces.len() as u64);
    for decl in &e.namespaces {
        out.decl(decl.prefix.as_deref(), &decl.uri)?;
    }
    // The element's own declarations are in scope for its own name.
    // The scope chain lives on the recursion stack and borrows the
    // element's declaration slice, so namespace tracking costs no heap.
    let chain = match parent {
        Some(p) => p.child(&e.namespaces),
        None => ScopeChain::root(&e.namespaces),
    };
    out.name(
        e.name.prefix(),
        chain.find_ref(e.name.prefix()),
        e.name.local(),
    )?;
    out.0.put_vls(e.attributes.len() as u64);
    for attr in &e.attributes {
        // Per the XML namespaces rules, unprefixed attributes are never
        // in the default namespace, so they always encode "no namespace".
        let prefix = attr.name.prefix();
        let ns = prefix.and_then(|p| chain.find_ref(Some(p)));
        out.name(prefix, ns, attr.name.local())?;
        out.value((&attr.value).into());
    }
    match &e.content {
        Content::Children(children) => {
            out.0.put_vls(children.len() as u64);
            for child in children {
                write_node(out, child, Some(&chain))?;
            }
        }
        Content::Leaf(value) => out.value(value.into()),
        Content::Array(array) => write_array(out, array),
    }
    out.close(frame);
    Ok(())
}

fn write_array(out: &mut Out, array: &ArrayValue) {
    match array {
        ArrayValue::I8(v) => out.array(v),
        ArrayValue::U8(v) => out.array(v),
        ArrayValue::I16(v) => out.array(v),
        ArrayValue::U16(v) => out.array(v),
        ArrayValue::I32(v) => out.array(v),
        ArrayValue::U32(v) => out.array(v),
        ArrayValue::I64(v) => out.array(v),
        ArrayValue::U64(v) => out.array(v),
        ArrayValue::F32(v) => out.array(v),
        ArrayValue::F64(v) => out.array(v),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::BxsaError;
    use bxdm::AtomicValue;

    #[test]
    fn undeclared_prefix_is_an_error() {
        let doc = Document::with_root(Element::component("nope:root"));
        assert_eq!(
            encode(&doc).unwrap_err(),
            BxsaError::UndeclaredPrefix {
                prefix: "nope".into()
            }
        );
    }

    #[test]
    fn declared_prefix_encodes() {
        let doc = Document::with_root(
            Element::component("p:root").with_namespace("p", "http://example.org"),
        );
        assert!(encode(&doc).is_ok());
    }

    #[test]
    fn unprefixed_attr_never_needs_declaration() {
        let doc = Document::with_root(
            Element::component("r")
                .with_default_namespace("http://example.org")
                .with_attr("plain", "v"),
        );
        assert!(encode(&doc).is_ok());
    }

    #[test]
    fn document_frame_leads() {
        let doc = Document::with_root(Element::component("r"));
        let bytes = encode(&doc).unwrap();
        let (order, ft) = crate::frame::parse_prefix(bytes[0], 0).unwrap();
        assert_eq!(order, ByteOrder::Little);
        assert_eq!(ft, FrameType::Document);
    }

    #[test]
    fn encoding_overhead_is_small_for_arrays() {
        // The Table 1 claim in miniature: framing overhead on a packed
        // array should be on the order of a percent, not double.
        let values: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let native = values.len() * 8;
        let doc = Document::with_root(Element::array("v", ArrayValue::F64(values)));
        let bytes = encode(&doc).unwrap();
        let overhead = bytes.len() - native;
        assert!(
            overhead < native / 50,
            "overhead {overhead} bytes on {native}"
        );
    }

    #[test]
    fn leaf_scalar_layout_has_type_code() {
        let doc = Document::with_root(Element::leaf("n", AtomicValue::Bool(true)));
        let bytes = encode(&doc).unwrap();
        // Bool code 0x0c followed by 0x01 must appear in the stream.
        assert!(bytes.windows(2).any(|w| w == [0x0c, 0x01]));
    }

    #[test]
    fn element_helper_encodes_without_document_frame() {
        let e = Element::component("r");
        let bytes = encode_element(&e, &EncodeOptions::default()).unwrap();
        let (_, ft) = crate::frame::parse_prefix(bytes[0], 0).unwrap();
        assert_eq!(ft, FrameType::Component);
    }

    #[test]
    fn encode_into_reuses_the_buffer() {
        let doc = Document::with_root(Element::array(
            "v",
            ArrayValue::F64((0..256).map(f64::from).collect()),
        ));
        let mut buf = Vec::new();
        encode_into(&doc, &mut buf).unwrap();
        assert_eq!(buf, encode(&doc).unwrap());
        let cap = buf.capacity();
        let ptr = buf.as_ptr();
        encode_into(&doc, &mut buf).unwrap();
        assert_eq!(buf.capacity(), cap, "steady-state encode must not grow");
        assert_eq!(buf.as_ptr(), ptr, "steady-state encode must not reallocate");
    }

    #[test]
    fn encode_into_clears_the_buffer_on_error() {
        let doc = Document::with_root(Element::component("nope:root"));
        let mut buf = vec![1, 2, 3];
        assert!(encode_into(&doc, &mut buf).is_err());
        assert!(buf.is_empty());
    }

    #[test]
    fn encode_element_into_matches_encode_element() {
        let e = Element::leaf("p:n", AtomicValue::I32(9)).with_namespace("p", "http://p");
        let owned = encode_element(&e, &EncodeOptions::default()).unwrap();
        let mut buf = vec![0xaa; 4];
        encode_element_into(&e, &EncodeOptions::default(), &mut buf).unwrap();
        assert_eq!(buf, owned);
    }
}
