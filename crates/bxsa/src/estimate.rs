//! Conservative size bounds used to pre-size frame size fields.
//!
//! The encoder writes each frame in a single pass: it reserves the size
//! field *before* the body, then backpatches. The reservation length comes
//! from the upper bounds computed here; they must hold for **any** start
//! offset (alignment padding is bounded by `width - 1` per aligned item)
//! and for any namespace context (references are bounded by their maximum
//! VLS lengths). Over-estimating only costs padded size-field bytes;
//! under-estimating would be a panic in the encoder, and the property
//! tests in `lib.rs` exercise this.

use bxdm::{AtomicValue, Content, Element, Node};
use xbs::vls::vls_len;
use xbs::TypeCode;

/// Upper bound on an encoded *(scope depth, index)* namespace reference.
pub const NS_REF_BOUND: usize = 20;

/// Exact size of a length-prefixed string field (VLS length + bytes).
pub fn str_field(s: &str) -> usize {
    vls_len(s.len() as u64) + s.len()
}

/// Upper bound on an encoded atomic value (type-code byte + value, plus
/// worst-case alignment padding for fixed-width values). `str_len` is
/// consulted only when `code` is [`TypeCode::Str`].
pub fn atomic_bound(code: TypeCode, str_len: usize) -> usize {
    1 + match code.width() {
        Some(w) => w + (w - 1),
        None => vls_len(str_len as u64) + str_len, // Str
    }
}

/// Exact upper bound on an encoded packed-array value: type-code byte,
/// VLS element count, worst-case alignment padding, payload.
///
/// # Panics
/// Panics if `code` is not a fixed-width numeric type (arrays of strings
/// or booleans do not exist in the bXDM model).
pub fn packed_array_bound(code: TypeCode, len: usize) -> usize {
    let w = code.width().expect("array element types are fixed-width");
    1 + vls_len(len as u64) + (w - 1) + len * w
}

/// Upper bound on the header of an *attribute-free* element frame body:
/// namespace table, name reference, local name, and the (zero) attribute
/// count. This is the shape every typed ([`crate::typed`]) element has;
/// it matches what [`element_body_bound`] computes for the equivalent
/// tree element, so typed and tree encodes reserve identically sized
/// frame size fields — a prerequisite for byte-for-byte equality.
pub fn plain_element_header_bound(local: &str, decls: &[(Option<&str>, &str)]) -> usize {
    let mut n = vls_len(decls.len() as u64);
    for (prefix, uri) in decls {
        n += str_field(prefix.unwrap_or(""));
        n += str_field(uri);
    }
    n + NS_REF_BOUND + str_field(local) + vls_len(0)
}

/// Upper bound on the body of an attribute-free leaf element frame.
pub fn plain_leaf_body_bound(
    local: &str,
    decls: &[(Option<&str>, &str)],
    code: TypeCode,
    str_len: usize,
) -> usize {
    plain_element_header_bound(local, decls) + atomic_bound(code, str_len)
}

/// Upper bound on the body of an attribute-free packed-array element
/// frame.
pub fn plain_array_body_bound(
    local: &str,
    decls: &[(Option<&str>, &str)],
    code: TypeCode,
    len: usize,
) -> usize {
    plain_element_header_bound(local, decls) + packed_array_bound(code, len)
}

/// Upper bound on the body of an attribute-free component element frame,
/// given the summed [`framed`] bounds of its children.
pub fn plain_component_body_bound(
    local: &str,
    decls: &[(Option<&str>, &str)],
    child_count: usize,
    children_frames_bound: usize,
) -> usize {
    plain_element_header_bound(local, decls) + vls_len(child_count as u64) + children_frames_bound
}

/// Upper bound on a complete frame given its body bound: prefix byte +
/// size field + body.
pub fn framed(body_bound: usize) -> usize {
    1 + size_field_len(body_bound) + body_bound
}

fn atomic_value_bound(v: &AtomicValue) -> usize {
    let str_len = match v {
        AtomicValue::Str(s) => s.len(),
        _ => 0,
    };
    atomic_bound(v.type_code(), str_len)
}

fn element_header_bound(e: &Element) -> usize {
    let mut n = 0;
    // Namespace declaration table.
    n += vls_len(e.namespaces.len() as u64);
    for decl in &e.namespaces {
        n += str_field(decl.prefix.as_deref().unwrap_or(""));
        n += str_field(&decl.uri);
    }
    // Element name reference + local name.
    n += NS_REF_BOUND + str_field(e.name.local());
    // Attributes.
    n += vls_len(e.attributes.len() as u64);
    for attr in &e.attributes {
        n += NS_REF_BOUND + str_field(attr.name.local());
        n += atomic_value_bound(&attr.value);
    }
    n
}

/// Upper bound on an element frame's *body* (no prefix/size field).
pub fn element_body_bound(e: &Element) -> usize {
    let mut n = element_header_bound(e);
    match &e.content {
        Content::Children(children) => {
            n += vls_len(children.len() as u64);
            for child in children {
                n += frame_bound(child);
            }
        }
        Content::Leaf(v) => n += atomic_value_bound(v),
        Content::Array(a) => n += packed_array_bound(a.type_code(), a.len()),
    }
    n
}

/// Upper bound on a frame *body* (everything after the prefix byte and
/// the size field).
pub fn body_bound(node: &Node) -> usize {
    match node {
        Node::Element(e) => element_body_bound(e),
        Node::Text(t) | Node::Comment(t) => str_field(t),
        Node::Pi { target, data } => str_field(target) + str_field(data),
    }
}

/// The size-field length the encoder will reserve for a body bound:
/// the smallest VLS length that can express any total up to
/// `1 + len + bound`.
pub fn size_field_len(bound: usize) -> usize {
    for len in 1..=xbs::vls::MAX_VLS_LEN {
        let max_total = 1 + len + bound;
        if 7 * len >= 64 || (max_total as u64) >> (7 * len) == 0 {
            return len;
        }
    }
    xbs::vls::MAX_VLS_LEN
}

/// Upper bound on a complete frame (prefix + size field + body).
pub fn frame_bound(node: &Node) -> usize {
    framed(body_bound(node))
}

/// Upper bound on a document frame's body.
pub fn document_body_bound(children: &[Node]) -> usize {
    vls_len(children.len() as u64) + children.iter().map(frame_bound).sum::<usize>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bxdm::{ArrayValue, Element};

    #[test]
    fn size_field_len_brackets() {
        assert_eq!(size_field_len(0), 1);
        assert_eq!(size_field_len(100), 1);
        // bound 126: max total = 128 needs 2 bytes
        assert_eq!(size_field_len(126), 2);
        assert_eq!(size_field_len(10_000), 2);
        assert_eq!(size_field_len(2_000_000), 3);
        assert_eq!(size_field_len(100 << 20), 4);
    }

    #[test]
    fn array_bound_scales_with_payload() {
        let small = Node::Element(Element::array("v", ArrayValue::F64(vec![0.0; 10])));
        let big = Node::Element(Element::array("v", ArrayValue::F64(vec![0.0; 1000])));
        assert!(body_bound(&big) - body_bound(&small) >= 990 * 8);
    }

    #[test]
    fn leaf_str_bound_is_exactish() {
        let n = Node::Element(Element::leaf("s", AtomicValue::Str("abc".into())));
        // header: nsdecls(1) + ref(20) + name(1+1) + attrs(1); value: code(1)+len(1)+3
        assert_eq!(body_bound(&n), 1 + 20 + 2 + 1 + 1 + 1 + 3);
    }

    /// The typed path's scalar bound helpers must agree exactly with the
    /// tree walker's bounds for the attribute-free shapes typed elements
    /// take, or typed and tree encodes would reserve differently sized
    /// frame size fields and diverge byte-for-byte.
    #[test]
    fn plain_bounds_match_tree_bounds() {
        let decls: &[(Option<&str>, &str)] = &[(Some("d"), "http://example.org/lead")];
        let leaf = Element::leaf("d:count", AtomicValue::I64(7))
            .with_namespace("d", "http://example.org/lead");
        assert_eq!(
            plain_leaf_body_bound("count", decls, TypeCode::I64, 0),
            element_body_bound(&leaf)
        );
        let sleaf = Element::leaf("s", AtomicValue::Str("hello".into()));
        assert_eq!(
            plain_leaf_body_bound("s", &[], TypeCode::Str, 5),
            element_body_bound(&sleaf)
        );
        let arr = Element::array("d:v", ArrayValue::F64(vec![0.5; 321]))
            .with_namespace("d", "http://example.org/lead");
        assert_eq!(
            plain_array_body_bound("v", decls, TypeCode::F64, 321),
            element_body_bound(&arr)
        );
        let comp = Element::component("d:set")
            .with_namespace("d", "http://example.org/lead")
            .with_child(arr.clone())
            .with_child(leaf.clone());
        let children = frame_bound(&Node::Element(arr)) + frame_bound(&Node::Element(leaf));
        assert_eq!(
            plain_component_body_bound("set", decls, 2, children),
            element_body_bound(&comp)
        );
    }

    /// Packed-array frames must never out-grow their estimate (that
    /// would make the encoder's reserved size field too small), and the
    /// estimate must be *tight*: only alignment padding and size-field
    /// slack separate bound from actuality.
    #[test]
    fn packed_array_bound_is_an_exact_upper_bound() {
        for len in [0usize, 1, 7, 1000] {
            let e = Element::array("v", ArrayValue::F64(vec![1.5; len]));
            let node = Node::Element(e.clone());
            let bytes =
                crate::encode_element(&e, &crate::EncodeOptions::default()).expect("encode");
            let bound = frame_bound(&node);
            assert!(
                bytes.len() <= bound,
                "array len {len}: actual {} exceeds bound {bound}",
                bytes.len()
            );
            // Tight: worst-case slack is the 7 alignment-padding bytes
            // the bound charges plus nothing else (the name reference
            // bound NS_REF_BOUND - the 1 byte actually written).
            let slack = bound - bytes.len();
            assert!(
                slack <= NS_REF_BOUND + 7,
                "array len {len}: slack {slack} is not tight"
            );
        }
    }

    #[test]
    fn nested_component_bounds_compose() {
        let inner = Element::leaf("x", AtomicValue::I32(1));
        let outer = Node::Element(Element::component("o").with_child(inner.clone()));
        let inner_frame = frame_bound(&Node::Element(inner));
        assert!(body_bound(&outer) > inner_frame);
    }
}
