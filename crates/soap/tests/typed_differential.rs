//! Differential property tests for the typed fast path.
//!
//! The [`soap::ToBxsa`]/[`soap::FromBxsa`] contract is that typed codecs
//! are *invisible on the wire*: for any message shape they must produce
//! exactly the bytes the generic tree pipeline produces, and recover
//! exactly the values the tree pipeline would. These tests check that
//! over randomly generated messages covering every `xbs::TypeCode` —
//! every numeric leaf and packed-array type, strings, booleans — plus
//! the deterministic edge cases that property generators hit rarely:
//! empty arrays, NaN/±Inf floats, and maximum-length element names.
//! Damaged envelopes check the other direction: the typed decode matches
//! only bytes the tree decode accepts, with the same values — XML
//! envelopes damaged at their markup, and BXSA envelopes, carrying an
//! unknown child the typed decode skips, damaged at every byte.

use std::sync::OnceLock;

use bxdm::{ArrayValue, AtomicValue, Element};
use bxsa::estimate::{framed, plain_array_body_bound, plain_component_body_bound,
    plain_leaf_body_bound};
use bxsa::{ElementHead, EncodeOptions, FieldReader, FrameWriter, TypedName};
use proptest::prelude::*;
use soap::{
    BxsaEncoding, DeadlineHeader, EncodingPolicy, FromBxsa, SoapEnvelope, SoapError, SoapResult,
    ToBxsa, TypedDecode, TypedEncoding, TypedRequest, TypedScratch, XmlEncoding,
};
use xbs::{ByteOrder, TypeCode};
use xmltext::{XmlFieldReader, XmlFieldWriter, XmlHead, XmlItem};

const MSG_NS: &str = "http://example.org/differential";
/// The local name of the unknown child the damaged-BXSA oracle adds to a
/// message; no field is named so, and the typed decode skips it.
const UNKNOWN: &str = "unknown";
const MSG_DECLS: [(Option<&str>, &str); 1] = [(Some("t"), MSG_NS)];

/// The name pool fields draw from. Entry 0 is the longest name the test
/// exercises (255 characters — names travel as VLS-prefixed strings, so
/// nothing structural changes past one byte of length, but the length
/// byte boundary at 2^7 is worth crossing).
fn name_pool() -> &'static [&'static str] {
    static POOL: OnceLock<Vec<&'static str>> = OnceLock::new();
    POOL.get_or_init(|| {
        vec![
            Box::leak("q".repeat(255).into_boxed_str()),
            "a",
            "field",
            "x0",
            "payload",
            "deeplynested",
        ]
    })
}

/// One body-entry child: every TypeCode as a leaf, every numeric
/// TypeCode as a packed array.
#[derive(Debug, Clone)]
enum Val {
    I8(i8),
    U8(u8),
    I16(i16),
    U16(u16),
    I32(i32),
    U32(u32),
    I64(i64),
    U64(u64),
    F32(f32),
    F64(f64),
    Bool(bool),
    Str(String),
    AI8(Vec<i8>),
    AU8(Vec<u8>),
    AI16(Vec<i16>),
    AU16(Vec<u16>),
    AI32(Vec<i32>),
    AU32(Vec<u32>),
    AI64(Vec<i64>),
    AU64(Vec<u64>),
    AF32(Vec<f32>),
    AF64(Vec<f64>),
}

impl Val {
    fn body_bound(&self, local: &str) -> usize {
        match self {
            Val::I8(_) => plain_leaf_body_bound(local, &[], TypeCode::I8, 0),
            Val::U8(_) => plain_leaf_body_bound(local, &[], TypeCode::U8, 0),
            Val::I16(_) => plain_leaf_body_bound(local, &[], TypeCode::I16, 0),
            Val::U16(_) => plain_leaf_body_bound(local, &[], TypeCode::U16, 0),
            Val::I32(_) => plain_leaf_body_bound(local, &[], TypeCode::I32, 0),
            Val::U32(_) => plain_leaf_body_bound(local, &[], TypeCode::U32, 0),
            Val::I64(_) => plain_leaf_body_bound(local, &[], TypeCode::I64, 0),
            Val::U64(_) => plain_leaf_body_bound(local, &[], TypeCode::U64, 0),
            Val::F32(_) => plain_leaf_body_bound(local, &[], TypeCode::F32, 0),
            Val::F64(_) => plain_leaf_body_bound(local, &[], TypeCode::F64, 0),
            Val::Bool(_) => plain_leaf_body_bound(local, &[], TypeCode::Bool, 0),
            Val::Str(s) => plain_leaf_body_bound(local, &[], TypeCode::Str, s.len()),
            Val::AI8(v) => plain_array_body_bound(local, &[], TypeCode::I8, v.len()),
            Val::AU8(v) => plain_array_body_bound(local, &[], TypeCode::U8, v.len()),
            Val::AI16(v) => plain_array_body_bound(local, &[], TypeCode::I16, v.len()),
            Val::AU16(v) => plain_array_body_bound(local, &[], TypeCode::U16, v.len()),
            Val::AI32(v) => plain_array_body_bound(local, &[], TypeCode::I32, v.len()),
            Val::AU32(v) => plain_array_body_bound(local, &[], TypeCode::U32, v.len()),
            Val::AI64(v) => plain_array_body_bound(local, &[], TypeCode::I64, v.len()),
            Val::AU64(v) => plain_array_body_bound(local, &[], TypeCode::U64, v.len()),
            Val::AF32(v) => plain_array_body_bound(local, &[], TypeCode::F32, v.len()),
            Val::AF64(v) => plain_array_body_bound(local, &[], TypeCode::F64, v.len()),
        }
    }

    fn encode_bxsa(&self, w: &mut FrameWriter, name: TypedName) -> SoapResult<()> {
        match self {
            Val::I8(v) => w.leaf(name, &[], *v)?,
            Val::U8(v) => w.leaf(name, &[], *v)?,
            Val::I16(v) => w.leaf(name, &[], *v)?,
            Val::U16(v) => w.leaf(name, &[], *v)?,
            Val::I32(v) => w.leaf(name, &[], *v)?,
            Val::U32(v) => w.leaf(name, &[], *v)?,
            Val::I64(v) => w.leaf(name, &[], *v)?,
            Val::U64(v) => w.leaf(name, &[], *v)?,
            Val::F32(v) => w.leaf(name, &[], *v)?,
            Val::F64(v) => w.leaf(name, &[], *v)?,
            Val::Bool(v) => w.leaf_bool(name, &[], *v)?,
            Val::Str(s) => w.leaf_str(name, &[], s)?,
            Val::AI8(v) => w.array(name, &[], v)?,
            Val::AU8(v) => w.array(name, &[], v)?,
            Val::AI16(v) => w.array(name, &[], v)?,
            Val::AU16(v) => w.array(name, &[], v)?,
            Val::AI32(v) => w.array(name, &[], v)?,
            Val::AU32(v) => w.array(name, &[], v)?,
            Val::AI64(v) => w.array(name, &[], v)?,
            Val::AU64(v) => w.array(name, &[], v)?,
            Val::AF32(v) => w.array(name, &[], v)?,
            Val::AF64(v) => w.array(name, &[], v)?,
        }
        Ok(())
    }

    fn encode_xml(&self, w: &mut XmlFieldWriter<'_>, qname: &str) {
        match self {
            Val::I8(v) => w.leaf(qname, &[], *v),
            Val::U8(v) => w.leaf(qname, &[], *v),
            Val::I16(v) => w.leaf(qname, &[], *v),
            Val::U16(v) => w.leaf(qname, &[], *v),
            Val::I32(v) => w.leaf(qname, &[], *v),
            Val::U32(v) => w.leaf(qname, &[], *v),
            Val::I64(v) => w.leaf(qname, &[], *v),
            Val::U64(v) => w.leaf(qname, &[], *v),
            Val::F32(v) => w.leaf(qname, &[], *v),
            Val::F64(v) => w.leaf(qname, &[], *v),
            Val::Bool(v) => w.leaf_bool(qname, &[], *v),
            Val::Str(s) => w.leaf_str(qname, &[], s),
            Val::AI8(v) => w.array(qname, &[], v),
            Val::AU8(v) => w.array(qname, &[], v),
            Val::AI16(v) => w.array(qname, &[], v),
            Val::AU16(v) => w.array(qname, &[], v),
            Val::AI32(v) => w.array(qname, &[], v),
            Val::AU32(v) => w.array(qname, &[], v),
            Val::AI64(v) => w.array(qname, &[], v),
            Val::AU64(v) => w.array(qname, &[], v),
            Val::AF32(v) => w.array(qname, &[], v),
            Val::AF64(v) => w.array(qname, &[], v),
        }
    }

    fn tree_element(&self, qname: &str) -> Element {
        match self {
            Val::I8(v) => Element::leaf(qname, AtomicValue::I8(*v)),
            Val::U8(v) => Element::leaf(qname, AtomicValue::U8(*v)),
            Val::I16(v) => Element::leaf(qname, AtomicValue::I16(*v)),
            Val::U16(v) => Element::leaf(qname, AtomicValue::U16(*v)),
            Val::I32(v) => Element::leaf(qname, AtomicValue::I32(*v)),
            Val::U32(v) => Element::leaf(qname, AtomicValue::U32(*v)),
            Val::I64(v) => Element::leaf(qname, AtomicValue::I64(*v)),
            Val::U64(v) => Element::leaf(qname, AtomicValue::U64(*v)),
            Val::F32(v) => Element::leaf(qname, AtomicValue::F32(*v)),
            Val::F64(v) => Element::leaf(qname, AtomicValue::F64(*v)),
            Val::Bool(v) => Element::leaf(qname, AtomicValue::Bool(*v)),
            Val::Str(s) => Element::leaf(qname, AtomicValue::Str(s.clone())),
            Val::AI8(v) => Element::array(qname, ArrayValue::I8(v.clone())),
            Val::AU8(v) => Element::array(qname, ArrayValue::U8(v.clone())),
            Val::AI16(v) => Element::array(qname, ArrayValue::I16(v.clone())),
            Val::AU16(v) => Element::array(qname, ArrayValue::U16(v.clone())),
            Val::AI32(v) => Element::array(qname, ArrayValue::I32(v.clone())),
            Val::AU32(v) => Element::array(qname, ArrayValue::U32(v.clone())),
            Val::AI64(v) => Element::array(qname, ArrayValue::I64(v.clone())),
            Val::AU64(v) => Element::array(qname, ArrayValue::U64(v.clone())),
            Val::AF32(v) => Element::array(qname, ArrayValue::F32(v.clone())),
            Val::AF64(v) => Element::array(qname, ArrayValue::F64(v.clone())),
        }
    }

    /// Clear values, keep the shape — the starting point for a
    /// clear-and-refill decode.
    fn zero(&mut self) {
        match self {
            Val::I8(v) => *v = 0,
            Val::U8(v) => *v = 0,
            Val::I16(v) => *v = 0,
            Val::U16(v) => *v = 0,
            Val::I32(v) => *v = 0,
            Val::U32(v) => *v = 0,
            Val::I64(v) => *v = 0,
            Val::U64(v) => *v = 0,
            Val::F32(v) => *v = 0.0,
            Val::F64(v) => *v = 0.0,
            Val::Bool(v) => *v = false,
            Val::Str(s) => s.clear(),
            Val::AI8(v) => v.clear(),
            Val::AU8(v) => v.clear(),
            Val::AI16(v) => v.clear(),
            Val::AU16(v) => v.clear(),
            Val::AI32(v) => v.clear(),
            Val::AU32(v) => v.clear(),
            Val::AI64(v) => v.clear(),
            Val::AU64(v) => v.clear(),
            Val::AF32(v) => v.clear(),
            Val::AF64(v) => v.clear(),
        }
    }

    fn decode_bxsa<'a>(
        &mut self,
        r: &mut FieldReader<'a>,
        head: &ElementHead<'a>,
    ) -> SoapResult<()> {
        match self {
            Val::I8(v) => *v = r.read_value(head)?,
            Val::U8(v) => *v = r.read_value(head)?,
            Val::I16(v) => *v = r.read_value(head)?,
            Val::U16(v) => *v = r.read_value(head)?,
            Val::I32(v) => *v = r.read_value(head)?,
            Val::U32(v) => *v = r.read_value(head)?,
            Val::I64(v) => *v = r.read_value(head)?,
            Val::U64(v) => *v = r.read_value(head)?,
            Val::F32(v) => *v = r.read_value(head)?,
            Val::F64(v) => *v = r.read_value(head)?,
            Val::Bool(v) => *v = r.read_bool(head)?,
            Val::Str(s) => {
                s.clear();
                s.push_str(r.read_str(head)?);
            }
            Val::AI8(v) => r.read_array_into(head, v)?,
            Val::AU8(v) => r.read_array_into(head, v)?,
            Val::AI16(v) => r.read_array_into(head, v)?,
            Val::AU16(v) => r.read_array_into(head, v)?,
            Val::AI32(v) => r.read_array_into(head, v)?,
            Val::AU32(v) => r.read_array_into(head, v)?,
            Val::AI64(v) => r.read_array_into(head, v)?,
            Val::AU64(v) => r.read_array_into(head, v)?,
            Val::AF32(v) => r.read_array_into(head, v)?,
            Val::AF64(v) => r.read_array_into(head, v)?,
        }
        Ok(())
    }

    fn decode_xml<'a>(
        &mut self,
        r: &mut XmlFieldReader<'a>,
        head: &XmlHead<'a>,
    ) -> SoapResult<()> {
        match self {
            Val::I8(v) => *v = r.leaf_value(head)?,
            Val::U8(v) => *v = r.leaf_value(head)?,
            Val::I16(v) => *v = r.leaf_value(head)?,
            Val::U16(v) => *v = r.leaf_value(head)?,
            Val::I32(v) => *v = r.leaf_value(head)?,
            Val::U32(v) => *v = r.leaf_value(head)?,
            Val::I64(v) => *v = r.leaf_value(head)?,
            Val::U64(v) => *v = r.leaf_value(head)?,
            Val::F32(v) => *v = r.leaf_value(head)?,
            Val::F64(v) => *v = r.leaf_value(head)?,
            Val::Bool(v) => *v = r.leaf_bool(head)?,
            Val::Str(s) => r.leaf_str_into(head, s)?,
            Val::AI8(v) => r.array_into(head, v)?,
            Val::AU8(v) => r.array_into(head, v)?,
            Val::AI16(v) => r.array_into(head, v)?,
            Val::AU16(v) => r.array_into(head, v)?,
            Val::AI32(v) => r.array_into(head, v)?,
            Val::AU32(v) => r.array_into(head, v)?,
            Val::AI64(v) => r.array_into(head, v)?,
            Val::AU64(v) => r.array_into(head, v)?,
            Val::AF32(v) => r.array_into(head, v)?,
            Val::AF64(v) => r.array_into(head, v)?,
        }
        Ok(())
    }

    /// A bit-exact fingerprint: floats by their raw bits, so NaN
    /// payloads count.
    fn fingerprint(&self, out: &mut Vec<u8>) {
        match self {
            Val::I8(v) => out.extend(v.to_le_bytes()),
            Val::U8(v) => out.extend(v.to_le_bytes()),
            Val::I16(v) => out.extend(v.to_le_bytes()),
            Val::U16(v) => out.extend(v.to_le_bytes()),
            Val::I32(v) => out.extend(v.to_le_bytes()),
            Val::U32(v) => out.extend(v.to_le_bytes()),
            Val::I64(v) => out.extend(v.to_le_bytes()),
            Val::U64(v) => out.extend(v.to_le_bytes()),
            Val::F32(v) => out.extend(v.to_bits().to_le_bytes()),
            Val::F64(v) => out.extend(v.to_bits().to_le_bytes()),
            Val::Bool(v) => out.push(*v as u8),
            Val::Str(s) => out.extend(s.as_bytes()),
            Val::AI8(v) => v.iter().for_each(|x| out.extend(x.to_le_bytes())),
            Val::AU8(v) => v.iter().for_each(|x| out.extend(x.to_le_bytes())),
            Val::AI16(v) => v.iter().for_each(|x| out.extend(x.to_le_bytes())),
            Val::AU16(v) => v.iter().for_each(|x| out.extend(x.to_le_bytes())),
            Val::AI32(v) => v.iter().for_each(|x| out.extend(x.to_le_bytes())),
            Val::AU32(v) => v.iter().for_each(|x| out.extend(x.to_le_bytes())),
            Val::AI64(v) => v.iter().for_each(|x| out.extend(x.to_le_bytes())),
            Val::AU64(v) => v.iter().for_each(|x| out.extend(x.to_le_bytes())),
            Val::AF32(v) => v.iter().for_each(|x| out.extend(x.to_bits().to_le_bytes())),
            Val::AF64(v) => v.iter().for_each(|x| out.extend(x.to_bits().to_le_bytes())),
        }
        out.push(0xFE); // field separator
    }

    /// Textual XML canonicalizes non-finite floats to `NaN`/`INF`, so
    /// NaN payload bits do not survive that wire (the paper's stated
    /// exception). Collapse them before comparing an XML decode.
    fn canonicalize_nans(&mut self) {
        match self {
            Val::F32(v) if v.is_nan() => *v = f32::NAN,
            Val::F64(v) if v.is_nan() => *v = f64::NAN,
            Val::AF32(v) => v.iter_mut().filter(|x| x.is_nan()).for_each(|x| *x = f32::NAN),
            Val::AF64(v) => v.iter_mut().filter(|x| x.is_nan()).for_each(|x| *x = f64::NAN),
            _ => {}
        }
    }
}

/// A message of arbitrary shape. Fields carry their name (from the
/// static pool, so `TypedName` can borrow it) and pre-rendered
/// qualified name.
#[derive(Debug, Clone, Default)]
struct DynMsg {
    fields: Vec<(&'static str, String, Val)>,
}

impl DynMsg {
    fn new(fields: Vec<(&'static str, Val)>) -> DynMsg {
        DynMsg {
            fields: fields
                .into_iter()
                .map(|(local, val)| (local, format!("t:{local}"), val))
                .collect(),
        }
    }

    fn tree(&self) -> Element {
        let mut root = Element::component("t:Msg").with_namespace("t", MSG_NS);
        for (_, qname, val) in &self.fields {
            root = root.with_child(val.tree_element(qname));
        }
        root
    }

    fn fingerprint(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for (_, _, val) in &self.fields {
            out.extend(val.fingerprint_name_bytes());
            val.fingerprint(&mut out);
        }
        out
    }
}

impl Val {
    /// Variant discriminant for the fingerprint, so a decode that
    /// somehow swapped two same-width fields cannot collide.
    fn fingerprint_name_bytes(&self) -> [u8; 1] {
        [match self {
            Val::I8(_) => 0,
            Val::U8(_) => 1,
            Val::I16(_) => 2,
            Val::U16(_) => 3,
            Val::I32(_) => 4,
            Val::U32(_) => 5,
            Val::I64(_) => 6,
            Val::U64(_) => 7,
            Val::F32(_) => 8,
            Val::F64(_) => 9,
            Val::Bool(_) => 10,
            Val::Str(_) => 11,
            Val::AI8(_) => 12,
            Val::AU8(_) => 13,
            Val::AI16(_) => 14,
            Val::AU16(_) => 15,
            Val::AI32(_) => 16,
            Val::AU32(_) => 17,
            Val::AI64(_) => 18,
            Val::AU64(_) => 19,
            Val::AF32(_) => 20,
            Val::AF64(_) => 21,
        }]
    }
}

impl ToBxsa for DynMsg {
    fn element_name(&self) -> TypedName {
        TypedName::new(Some("t"), "Msg")
    }

    fn bxsa_body_bound(&self) -> usize {
        let children: usize = self
            .fields
            .iter()
            .map(|(local, _, val)| framed(val.body_bound(local)))
            .sum();
        plain_component_body_bound("Msg", &MSG_DECLS, self.fields.len(), children)
    }

    fn encode_bxsa(&self, w: &mut FrameWriter) -> SoapResult<()> {
        w.begin_component(self.element_name(), &MSG_DECLS, self.fields.len(), self.bxsa_body_bound())?;
        for (local, _, val) in &self.fields {
            val.encode_bxsa(w, TypedName::new(Some("t"), local))?;
        }
        Ok(w.end_component()?)
    }

    fn encode_xml(&self, w: &mut XmlFieldWriter<'_>) {
        if self.fields.is_empty() {
            w.empty_component("t:Msg", &MSG_DECLS);
            return;
        }
        w.begin_component("t:Msg", &MSG_DECLS);
        for (_, qname, val) in &self.fields {
            val.encode_xml(w, qname);
        }
        w.end_component("t:Msg");
    }
}

impl FromBxsa for DynMsg {
    fn expected_local() -> &'static str {
        "Msg"
    }

    fn decode_bxsa<'a>(
        &mut self,
        r: &mut FieldReader<'a>,
        head: &ElementHead<'a>,
    ) -> SoapResult<()> {
        let mismatch = || SoapError::Protocol("child count mismatch".into());
        let mut fields = self.fields.iter_mut();
        for _ in 0..head.child_count {
            let f = r.open()?;
            if f.local == UNKNOWN {
                r.skip(&f)?;
                continue;
            }
            let (_, _, val) = fields.next().ok_or_else(mismatch)?;
            val.decode_bxsa(r, &f)?;
        }
        if fields.next().is_some() {
            return Err(mismatch());
        }
        Ok(r.close(head)?)
    }

    fn decode_xml<'a>(
        &mut self,
        r: &mut XmlFieldReader<'a>,
        head: &XmlHead<'a>,
    ) -> SoapResult<()> {
        if head.self_closing {
            if self.fields.is_empty() {
                return Ok(());
            }
            return Err(SoapError::Protocol("child count mismatch".into()));
        }
        for (_, _, val) in &mut self.fields {
            match r.next()? {
                XmlItem::Start(f) => val.decode_xml(r, &f)?,
                _ => return Err(SoapError::Protocol("child count mismatch".into())),
            }
        }
        match r.next()? {
            XmlItem::End(l) if l == head.local => Ok(()),
            _ => Err(SoapError::Protocol("trailing content in Msg".into())),
        }
    }
}

fn arb_val() -> impl Strategy<Value = Val> {
    use proptest::collection::vec;
    prop_oneof![
        any::<i8>().prop_map(Val::I8),
        any::<u8>().prop_map(Val::U8),
        any::<i16>().prop_map(Val::I16),
        any::<u16>().prop_map(Val::U16),
        any::<i32>().prop_map(Val::I32),
        any::<u32>().prop_map(Val::U32),
        any::<i64>().prop_map(Val::I64),
        any::<u64>().prop_map(Val::U64),
        any::<f32>().prop_map(Val::F32),
        any::<f64>().prop_map(Val::F64),
        any::<bool>().prop_map(Val::Bool),
        "[a-zA-Z0-9 <>&'\".,]{0,24}".prop_map(Val::Str),
        vec(any::<i8>(), 0..32).prop_map(Val::AI8),
        vec(any::<u8>(), 0..32).prop_map(Val::AU8),
        vec(any::<i16>(), 0..32).prop_map(Val::AI16),
        vec(any::<u16>(), 0..32).prop_map(Val::AU16),
        vec(any::<i32>(), 0..32).prop_map(Val::AI32),
        vec(any::<u32>(), 0..32).prop_map(Val::AU32),
        vec(any::<i64>(), 0..32).prop_map(Val::AI64),
        vec(any::<u64>(), 0..32).prop_map(Val::AU64),
        vec(any::<f32>(), 0..32).prop_map(Val::AF32),
        vec(any::<f64>(), 0..32).prop_map(Val::AF64),
    ]
}

fn arb_msg() -> impl Strategy<Value = DynMsg> {
    proptest::collection::vec((0..name_pool().len(), arb_val()), 0..5)
        .prop_map(|fields| {
            DynMsg::new(
                fields
                    .into_iter()
                    .map(|(i, val)| (name_pool()[i], val))
                    .collect(),
            )
        })
}

/// The BXSA option cases both directions are checked under: each byte
/// order, and a checksummed encode.
fn bxsa_options() -> [EncodeOptions; 3] {
    [
        EncodeOptions {
            byte_order: ByteOrder::Little,
            checksum: false,
        },
        EncodeOptions {
            byte_order: ByteOrder::Big,
            checksum: false,
        },
        EncodeOptions {
            byte_order: ByteOrder::Little,
            checksum: true,
        },
    ]
}

/// Typed encode == tree encode, byte for byte, on every wire.
fn assert_encodes_match(msg: &DynMsg) {
    let envelope = SoapEnvelope::with_body(msg.tree());
    let doc = envelope.to_document();
    let mut scratch = TypedScratch::default();

    for options in bxsa_options() {
        let enc = BxsaEncoding { options };
        let tree = EncodingPolicy::encode(&enc, &doc).unwrap();
        let mut typed = Vec::new();
        enc.encode_typed(msg, None, &mut scratch, &mut typed).unwrap();
        assert_eq!(
            typed, tree,
            "BXSA {:?} bytes diverge for {msg:?}",
            enc.options
        );
    }

    let enc = XmlEncoding::default();
    let tree = EncodingPolicy::encode(&enc, &doc).unwrap();
    let mut typed = Vec::new();
    enc.encode_typed(msg, None, &mut scratch, &mut typed).unwrap();
    assert_eq!(
        String::from_utf8(typed).unwrap(),
        String::from_utf8(tree).unwrap(),
        "XML bytes diverge for {msg:?}"
    );
}

/// Typed decode of the tree-encoded reply recovers the exact values
/// (bit-exact on BXSA; NaN-canonicalized on textual XML).
fn assert_decodes_match(msg: &DynMsg) {
    let doc = SoapEnvelope::with_body(msg.tree()).to_document();

    for options in bxsa_options() {
        let enc = BxsaEncoding { options };
        let wire = EncodingPolicy::encode(&enc, &doc).unwrap();
        let mut back = msg.clone();
        back.fields.iter_mut().for_each(|(_, _, v)| v.zero());
        let outcome = enc.decode_typed_reply(&wire, &mut back).unwrap();
        assert_eq!(outcome, TypedDecode::Matched);
        let options = &enc.options;
        assert_eq!(
            back.fingerprint(),
            msg.fingerprint(),
            "BXSA {options:?} decode for {msg:?}"
        );
    }

    let enc = XmlEncoding::default();
    let wire = EncodingPolicy::encode(&enc, &doc).unwrap();
    let mut back = msg.clone();
    back.fields.iter_mut().for_each(|(_, _, v)| v.zero());
    let outcome = enc.decode_typed_reply(&wire, &mut back).unwrap();
    assert_eq!(outcome, TypedDecode::Matched);
    let mut expect = msg.clone();
    expect.fields.iter_mut().for_each(|(_, _, v)| v.canonicalize_nans());
    back.fields.iter_mut().for_each(|(_, _, v)| v.canonicalize_nans());
    assert_eq!(back.fingerprint(), expect.fingerprint(), "XML decode for {msg:?}");
}

/// Type names an annotation is rewritten to: every schema type, and one
/// that names none.
const TYPE_NAMES: [&str; 13] = [
    "xsd:byte", "xsd:unsignedByte", "xsd:short", "xsd:unsignedShort", "xsd:int",
    "xsd:unsignedInt", "xsd:long", "xsd:unsignedLong", "xsd:float", "xsd:double",
    "xsd:string", "xsd:boolean", "xsd:bogus",
];

/// Every damaged copy of `xml`: cut after each `>`; each prefixed end
/// tag with its prefix respelled; `<extra/>` and an XML declaration
/// inserted after each `>`; each annotation renamed to each of
/// [`TYPE_NAMES`].
fn mutants(xml: &str) -> Vec<String> {
    let mut out = Vec::new();
    for (at, _) in xml.match_indices('>') {
        let (head, tail) = xml.split_at(at + 1);
        out.push(head.to_owned());
        out.push(format!("{head}<extra/>{tail}"));
        out.push(format!("{head}<?xml version=\"1.0\"?>{tail}"));
    }
    for (at, _) in xml.match_indices("</") {
        let tag = &xml[at..at + xml[at..].find('>').unwrap()];
        if let Some(colon) = tag.find(':') {
            out.push(format!("{}</zz{}", &xml[..at], &xml[at + colon..]));
        }
    }
    for (at, _) in xml.match_indices("=\"xsd:") {
        let (head, tail) = xml.split_at(at + 2);
        let tail = &tail[tail.find('"').unwrap()..];
        out.extend(TYPE_NAMES.iter().map(|name| format!("{head}{name}{tail}")));
    }
    out
}

/// `back` came out of a typed decode that reported a match on `xml`:
/// the tree decode must accept `xml` too, and its body entry must equal
/// `back`'s tree form (compared as XML text, so NaNs compare equal).
fn assert_tree_agrees(xml: &str, back: &DynMsg) {
    let enc = XmlEncoding::default();
    let doc = EncodingPolicy::decode(&enc, xml.as_bytes()).unwrap_or_else(|e| {
        panic!("typed decode matched what the tree decode rejects ({e}): {xml}")
    });
    let envelope = SoapEnvelope::from_document(&doc).unwrap();
    let text = |e: &Element| xmltext::to_string(&bxdm::Document::with_root(e.clone())).unwrap();
    assert_eq!(text(&envelope.body[0]), text(&back.tree()), "values differ on {xml}");
}

/// Damage the tree-encoded XML envelope of `msg` every way
/// [`mutants`] knows; whenever a typed decode still reports a match, the
/// tree decode must agree.
fn assert_typed_accepts_only_what_tree_accepts(msg: &DynMsg) {
    let mut envelope = SoapEnvelope::with_body(msg.tree());
    DeadlineHeader::new(250, 8).stamp(&mut envelope);
    let enc = XmlEncoding::default();
    let wire = EncodingPolicy::encode(&enc, &envelope.to_document()).unwrap();
    let mut back = msg.clone();
    for xml in mutants(std::str::from_utf8(&wire).unwrap()) {
        if let Ok(TypedDecode::Matched) = enc.decode_typed_reply(xml.as_bytes(), &mut back) {
            assert_tree_agrees(&xml, &back);
        }
        let request = enc.decode_typed_request(xml.as_bytes(), &mut back);
        if let Ok(TypedRequest::Matched { .. }) = request {
            assert_tree_agrees(&xml, &back);
        }
    }
}

/// `msg`'s body entry with an unknown child ahead of its fields: a
/// component holding a boolean leaf, a text node and a copy of every
/// field, all of which a typed decode skips.
fn with_unknown_child(msg: &DynMsg) -> Element {
    let mut unknown = Element::component(format!("t:{UNKNOWN}"))
        .with_child(Element::leaf("t:flag", AtomicValue::Bool(true)))
        .with_text("note");
    for (_, qname, val) in &msg.fields {
        unknown.push_child(val.tree_element(qname));
    }
    let mut root = Element::component("t:Msg")
        .with_namespace("t", MSG_NS)
        .with_child(unknown);
    for (_, qname, val) in &msg.fields {
        root.push_child(val.tree_element(qname));
    }
    root
}

/// `back` came out of a typed decode that reported a match on the BXSA
/// `bytes`: the tree decode must accept them too, and the body entry's
/// fields, the unknown child aside, must hold `back`'s values.
fn assert_bxsa_tree_agrees(bytes: &[u8], back: &DynMsg, damage: impl Fn() -> String) {
    let doc = bxsa::decode(bytes).unwrap_or_else(|e| {
        panic!(
            "typed decode matched what the tree decode rejects ({e}): {}",
            damage()
        )
    });
    let envelope = SoapEnvelope::from_document(&doc).unwrap();
    let got: Vec<String> = envelope.body[0]
        .child_elements()
        .filter(|e| e.name.local() != UNKNOWN)
        .map(|e| format!("{:?}", e.content))
        .collect();
    let want: Vec<String> = back
        .fields
        .iter()
        .map(|(_, qname, val)| format!("{:?}", val.tree_element(qname).content))
        .collect();
    assert_eq!(got, want, "values differ: {}", damage());
}

/// Damage the tree-encoded BXSA envelope of `msg`, with an unknown child
/// added, at every byte; whenever a typed decode still reports a match,
/// the tree decode must agree.
fn assert_typed_accepts_only_what_tree_accepts_bxsa(msg: &DynMsg) {
    let mut envelope = SoapEnvelope::with_body(with_unknown_child(msg));
    DeadlineHeader::new(250, 8).stamp(&mut envelope);
    for options in bxsa_options() {
        let enc = BxsaEncoding { options };
        let wire = EncodingPolicy::encode(&enc, &envelope.to_document()).unwrap();
        let mut back = msg.clone();
        assert_eq!(
            enc.decode_typed_reply(&wire, &mut back).unwrap(),
            TypedDecode::Matched
        );
        for at in 0..wire.len() {
            for mask in [0x01u8, 0x02, 0x80] {
                let mut damaged = wire.clone();
                damaged[at] ^= mask;
                let damage = || format!("{:?}, byte {at} ^ {mask:#04x} of {msg:?}", enc.options);
                if let Ok(TypedDecode::Matched) = enc.decode_typed_reply(&damaged, &mut back) {
                    assert_bxsa_tree_agrees(&damaged, &back, damage);
                }
                let request = enc.decode_typed_request(&damaged, &mut back);
                if let Ok(TypedRequest::Matched { .. }) = request {
                    assert_bxsa_tree_agrees(&damaged, &back, damage);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn typed_and_tree_encodes_are_byte_identical(msg in arb_msg()) {
        assert_encodes_match(&msg);
    }

    #[test]
    fn typed_decode_recovers_tree_encoded_values(msg in arb_msg()) {
        assert_decodes_match(&msg);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn typed_decode_of_damaged_envelopes_matches_only_what_tree_decode_accepts(msg in arb_msg()) {
        assert_typed_accepts_only_what_tree_accepts(&msg);
    }
}

proptest! {
    // Every byte of three encodings, three ways each: fewer messages.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn typed_decode_of_damaged_bxsa_matches_only_what_tree_decode_accepts(msg in arb_msg()) {
        assert_typed_accepts_only_what_tree_accepts_bxsa(&msg);
    }
}

/// The shapes random generation hits rarely but the paper's workloads
/// hit constantly: empty arrays of every element type, non-finite
/// floats in leaves and packed arrays, the longest name in the pool,
/// and the empty message.
#[test]
fn deterministic_edge_cases_match_on_both_wires() {
    let long = name_pool()[0];
    let cases = vec![
        DynMsg::new(vec![]),
        DynMsg::new(vec![
            ("a", Val::AI8(vec![])),
            ("field", Val::AU8(vec![])),
            ("x0", Val::AI16(vec![])),
            ("payload", Val::AU16(vec![])),
            ("a", Val::AI32(vec![])),
            ("field", Val::AU32(vec![])),
            ("x0", Val::AI64(vec![])),
            ("payload", Val::AU64(vec![])),
            ("a", Val::AF32(vec![])),
            ("field", Val::AF64(vec![])),
        ]),
        DynMsg::new(vec![
            ("a", Val::F64(f64::NAN)),
            ("field", Val::F64(f64::INFINITY)),
            ("x0", Val::F64(f64::NEG_INFINITY)),
            ("payload", Val::F32(f32::NAN)),
            ("a", Val::F32(f32::INFINITY)),
            ("field", Val::F32(f32::NEG_INFINITY)),
        ]),
        DynMsg::new(vec![
            (
                "a",
                Val::AF64(vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 1.5e-300]),
            ),
            (
                "field",
                Val::AF32(vec![f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, 1.5e-30]),
            ),
        ]),
        DynMsg::new(vec![
            (long, Val::I64(i64::MIN)),
            (long, Val::AF64((0..64).map(|i| i as f64).collect())),
            (long, Val::Str("x".repeat(300))),
        ]),
    ];
    for msg in &cases {
        assert_encodes_match(msg);
        assert_decodes_match(msg);
    }
}
