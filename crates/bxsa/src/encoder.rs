//! bXDM → BXSA frames: a recursive walk over the tree, writing through
//! the shared `frame::Out` frame writer. Open frames live on the
//! recursion stack and namespace references resolve through a
//! [`ScopeChain`] on that stack, so encoding allocates nothing beyond the
//! output buffer. The same walk serves [`encode_into_with`], which copies
//! every array, and [`encode_parts_into`], which may leave large arrays
//! in the document for a gather write.

use bxdm::{ArrayValue, Content, Document, Element, Node, ScopeChain};
use xbs::{ByteOrder, XbsWriter};

use crate::error::BxsaResult;
use crate::estimate::{body_bound, document_body_bound, element_body_bound};
use crate::frame::{FrameType, Out, Refs, MAX_REFS};

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
    encode_frame(opts, buf, |out| write_document(out, doc, None))
}

/// [`encode_into_with`] for a gather write: large arrays stay in `doc`
/// instead of being copied into `buf`.
///
/// `buf` (cleared, capacity kept) receives the bytes around the arrays
/// left in place, and `parts` the slices to send, in order: pieces of
/// `buf` and, between them, the arrays' payload bytes borrowed from
/// `doc`. Returns how many leading slots of `parts` that filled; their
/// concatenation is exactly what [`encode_into_with`] writes.
///
/// An array stays in place when its payload is at least 4 KiB, the byte
/// order is the machine's own (only then are its memory bytes its wire
/// bytes) and no checksum is asked for (the checksum covers every
/// byte); at most [`MAX_REFS`] arrays, and at most
/// `(parts.len() - 1) / 2`, stay in place, and later ones are copied.
///
/// # Panics
/// Panics if `parts` is empty.
pub fn encode_parts_into<'d>(
    doc: &'d Document,
    opts: &EncodeOptions,
    buf: &'d mut Vec<u8>,
    parts: &mut [&'d [u8]],
) -> BxsaResult<usize> {
    assert!(
        !parts.is_empty(),
        "encode_parts_into needs a slot for the head"
    );
    let cap = if opts.checksum {
        0
    } else {
        MAX_REFS.min((parts.len() - 1) / 2)
    };
    let mut refs = Refs::new(cap);
    encode_frame(opts, buf, |out| write_document(out, doc, Some(&mut refs)))?;
    let head: &'d [u8] = buf;
    Ok(refs.interleave(head, parts))
}

/// The document frame: child count, then each child.
fn write_document<'d>(
    out: &mut Out,
    doc: &'d Document,
    mut refs: Option<&mut Refs<'d>>,
) -> BxsaResult<()> {
    let frame = out.open(FrameType::Document, document_body_bound(&doc.children));
    out.0.put_vls(doc.children.len() as u64);
    for child in &doc.children {
        write_node(out, child, None, refs.as_deref_mut())?;
    }
    out.close(frame);
    Ok(())
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
    encode_frame(opts, buf, |out| write_element(out, element, None, None))
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

fn write_node<'d>(
    out: &mut Out,
    node: &'d Node,
    parent: Option<&ScopeChain<'_>>,
    refs: Option<&mut Refs<'d>>,
) -> BxsaResult<()> {
    let (kind, first, second) = match node {
        Node::Element(e) => return write_element(out, e, parent, refs),
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

fn write_element<'d>(
    out: &mut Out,
    e: &'d Element,
    parent: Option<&ScopeChain<'_>>,
    mut refs: Option<&mut Refs<'d>>,
) -> BxsaResult<()> {
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
                write_node(out, child, Some(&chain), refs.as_deref_mut())?;
            }
        }
        Content::Leaf(value) => out.value(value.into()),
        Content::Array(array) => write_array(out, array, refs),
    }
    out.close(frame);
    Ok(())
}

fn write_array<'d>(out: &mut Out, array: &'d ArrayValue, refs: Option<&mut Refs<'d>>) {
    match array {
        ArrayValue::I8(v) => out.array(v, refs),
        ArrayValue::U8(v) => out.array(v, refs),
        ArrayValue::I16(v) => out.array(v, refs),
        ArrayValue::U16(v) => out.array(v, refs),
        ArrayValue::I32(v) => out.array(v, refs),
        ArrayValue::U32(v) => out.array(v, refs),
        ArrayValue::I64(v) => out.array(v, refs),
        ArrayValue::U64(v) => out.array(v, refs),
        ArrayValue::F32(v) => out.array(v, refs),
        ArrayValue::F64(v) => out.array(v, refs),
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

    /// Encode `doc` both ways and check the gathered parts concatenate
    /// to the flat bytes; returns how many arrays stayed in place.
    fn gathered_matches_flat(doc: &Document, opts: &EncodeOptions, slots: usize) -> usize {
        let mut flat = vec![0xee; 3];
        encode_into_with(doc, opts, &mut flat).unwrap();
        let mut head = vec![0xdd; 5];
        let mut parts = vec![&[][..]; slots];
        let n = encode_parts_into(doc, opts, &mut head, &mut parts).unwrap();
        assert!(n >= 1 && n <= slots);
        assert_eq!(
            parts[..n].concat(),
            flat,
            "gathered parts differ from the flat encode"
        );
        n / 2
    }

    #[test]
    fn arrays_past_the_cap_are_copied() {
        let mut root = Element::component("r");
        for i in 0..MAX_REFS + 6 {
            root.push_child(Element::array("a", ArrayValue::I32(vec![i as i32; 1025])));
        }
        root.push_child(Element::leaf("end", AtomicValue::Bool(true)));
        let doc = Document::with_root(root);
        let native = EncodeOptions {
            byte_order: ByteOrder::native(),
            ..Default::default()
        };
        assert_eq!(
            gathered_matches_flat(&doc, &native, 2 * MAX_REFS + 1),
            MAX_REFS
        );
        assert_eq!(gathered_matches_flat(&doc, &native, 4 * MAX_REFS), MAX_REFS);
        assert_eq!(gathered_matches_flat(&doc, &native, 7), 3);
        assert_eq!(gathered_matches_flat(&doc, &native, 1), 0);
    }

    #[test]
    fn referenced_parts_borrow_the_document_arrays() {
        let doc = Document::with_root(
            Element::component("r")
                .with_child(Element::array("small", ArrayValue::F64(vec![1.0; 511])))
                .with_child(Element::array("big", ArrayValue::F64(vec![2.0; 512])))
                .with_child(Element::array("bytes", ArrayValue::U8(vec![3; 4097]))),
        );
        let opts = EncodeOptions {
            byte_order: ByteOrder::native(),
            ..Default::default()
        };
        let mut head = Vec::new();
        let mut parts = [&[][..]; 8];
        let n = encode_parts_into(&doc, &opts, &mut head, &mut parts).unwrap();
        // head, big, head, bytes; nothing follows the last payload.
        assert_eq!(n, 4);
        let root = doc.root().unwrap();
        let big = root.find_child("big").unwrap().as_f64_array().unwrap();
        assert_eq!(parts[1].as_ptr(), big.as_ptr().cast::<u8>());
        assert_eq!(parts[1].len(), 512 * 8);
        let Content::Array(ArrayValue::U8(bytes)) = &root.find_child("bytes").unwrap().content
        else {
            panic!("bytes is a u8 array");
        };
        assert_eq!(parts[3].as_ptr(), bytes.as_ptr());
        assert!(
            head.len() < 511 * 8 + 64,
            "the small array is copied, the big ones are not"
        );
    }

    mod gather {
        use super::*;
        use proptest::prelude::*;

        /// Counts around the 4 KiB threshold for each element width, odd
        /// ones included, so later frames land misaligned.
        fn count_for(width: usize, pick: usize) -> usize {
            let at = crate::frame::MIN_REF_BYTES / width;
            [0, 1, 3, at - 1, at, at + 1, 2 * at + 3][pick]
        }

        fn array_value(kind: u8, pick: usize, seed: u64) -> ArrayValue {
            let n = |width| count_for(width, pick);
            let mix = |i: usize| {
                seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add(i as u64)
            };
            match kind {
                0 => ArrayValue::I8((0..n(1)).map(|i| mix(i) as i8).collect()),
                1 => ArrayValue::U8((0..n(1)).map(|i| mix(i) as u8).collect()),
                2 => ArrayValue::I16((0..n(2)).map(|i| mix(i) as i16).collect()),
                3 => ArrayValue::U16((0..n(2)).map(|i| mix(i) as u16).collect()),
                4 => ArrayValue::I32((0..n(4)).map(|i| mix(i) as i32).collect()),
                5 => ArrayValue::U32((0..n(4)).map(|i| mix(i) as u32).collect()),
                6 => ArrayValue::I64((0..n(8)).map(|i| mix(i) as i64).collect()),
                7 => ArrayValue::U64((0..n(8)).map(mix).collect()),
                8 => ArrayValue::F32((0..n(4)).map(|i| mix(i) as f32).collect()),
                _ => ArrayValue::F64((0..n(8)).map(|i| f64::from_bits(mix(i))).collect()),
            }
        }

        fn arb_element() -> impl Strategy<Value = Element> {
            let leaf_like = prop_oneof![
                3 => (0u8..10, 0usize..7, any::<u64>())
                    .prop_map(|(kind, pick, seed)| Element::array("a", array_value(kind, pick, seed))),
                1 => any::<i16>().prop_map(|v| Element::leaf("n", AtomicValue::I16(v))),
                1 => "[a-z]{0,9}".prop_map(|t| Element::leaf("s", AtomicValue::Str(t))),
            ];
            leaf_like.prop_recursive(3, 24, 4, |inner| {
                (
                    proptest::collection::vec(
                        prop_oneof![
                            4 => inner.prop_map(Node::Element),
                            1 => "[a-z ]{1,7}".prop_map(Node::Text),
                        ],
                        0..6,
                    ),
                    any::<bool>(),
                )
                    .prop_map(|(children, with_ns)| {
                        let mut e = if with_ns {
                            Element::component("p:c").with_namespace("p", "urn:p")
                        } else {
                            Element::component("c")
                        };
                        for c in children {
                            e.push_node(c);
                        }
                        e
                    })
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]
            #[test]
            fn gathered_parts_equal_the_flat_encode(
                roots in proptest::collection::vec(arb_element(), 1..3),
                native in any::<bool>(),
                checksum in any::<bool>(),
                slots in prop_oneof![Just(1usize), Just(2), Just(3), Just(6), Just(2 * MAX_REFS + 1)],
            ) {
                let mut doc = Document::new();
                for root in roots {
                    doc.children.push(Node::Element(root));
                }
                let native_order = ByteOrder::native();
                let foreign = match native_order {
                    ByteOrder::Little => ByteOrder::Big,
                    ByteOrder::Big => ByteOrder::Little,
                };
                let opts = EncodeOptions {
                    byte_order: if native { native_order } else { foreign },
                    checksum,
                };
                let refs = gathered_matches_flat(&doc, &opts, slots);
                if !native || checksum || slots < 3 {
                    prop_assert_eq!(refs, 0);
                }
            }
        }
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
