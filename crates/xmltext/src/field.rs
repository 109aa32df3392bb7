//! Field-at-a-time textual XML access: the schema-known fast path.
//!
//! [`crate::writer`]/[`crate::reader`] serialize any bXDM tree, but a
//! caller whose message type is statically known can emit and consume
//! the markup directly from typed fields. [`XmlFieldWriter`] produces
//! output **byte-identical** to the tree writer's for the attribute-free
//! element shapes typed messages take (same `xsi:type`/`bx:arrayType`
//! annotations under the same [`XmlWriteOptions`]), and
//! [`XmlFieldReader`] pulls typed values straight off the incremental
//! lexer events ([`Lexer::next_event`]/[`Lexer::next_attr`]) without
//! materializing attribute vectors or a tree — the decode side stays
//! allocation-free at steady state because numeric parsing borrows and
//! array/string reads refill caller-owned buffers.

use xbs::TypeCode;

use crate::error::{XmlError, XmlResult};
use crate::escape::escape_text;
use crate::lexer::{AttrEvent, Event, Lexer};
use crate::num;
use crate::writer::XmlWriteOptions;

/// A numeric type with an XML Schema lexical form, as typed fields use
/// it: written in place with the [`crate::num`] kernels, parsed without
/// scratch allocation.
///
/// Implemented for the ten fixed-width numeric types of the bXDM model
/// (strings and booleans have dedicated methods on the writer/reader —
/// their lexical handling differs: markup escaping, `true`/`false`).
pub trait TypedText: Copy {
    /// The corresponding bXDM type code (provides the `xsd:` name for
    /// `xsi:type` / `bx:arrayType` annotations).
    const CODE: TypeCode;

    /// Append the value's lexical form. Numeric lexical forms never
    /// contain markup characters, so no escaping is involved.
    fn push_text(self, out: &mut String);

    /// Parse a (whitespace-trimmed) lexical form; `None` on any
    /// mismatch, including range overflow.
    fn parse_text(t: &str) -> Option<Self>;
}

macro_rules! signed_typed_text {
    ($($t:ty => $code:ident),* $(,)?) => {$(
        impl TypedText for $t {
            const CODE: TypeCode = TypeCode::$code;
            fn push_text(self, out: &mut String) {
                num::write_i64(self as i64, out);
            }
            fn parse_text(t: &str) -> Option<$t> {
                num::parse_i64(t).and_then(|v| <$t>::try_from(v).ok())
            }
        }
    )*};
}

macro_rules! unsigned_typed_text {
    ($($t:ty => $code:ident),* $(,)?) => {$(
        impl TypedText for $t {
            const CODE: TypeCode = TypeCode::$code;
            fn push_text(self, out: &mut String) {
                num::write_u64(self as u64, out);
            }
            fn parse_text(t: &str) -> Option<$t> {
                num::parse_u64(t).and_then(|v| <$t>::try_from(v).ok())
            }
        }
    )*};
}

signed_typed_text! { i8 => I8, i16 => I16, i32 => I32, i64 => I64 }
unsigned_typed_text! { u8 => U8, u16 => U16, u32 => U32, u64 => U64 }

impl TypedText for f32 {
    const CODE: TypeCode = TypeCode::F32;
    fn push_text(self, out: &mut String) {
        bxdm::value::write_f32_lexical(self, out);
    }
    fn parse_text(t: &str) -> Option<f32> {
        // Mirrors the tree reader: f32 must not round-trip through the
        // f64 kernel (double rounding); std's parser accepts the
        // INF/-INF/NaN lexical forms case-insensitively.
        t.parse::<f32>().ok()
    }
}

impl TypedText for f64 {
    const CODE: TypeCode = TypeCode::F64;
    fn push_text(self, out: &mut String) {
        num::write_f64(self, out);
    }
    fn parse_text(t: &str) -> Option<f64> {
        num::parse_f64_lexical(t)
    }
}

/// A typed markup emitter over a caller-owned `String`.
///
/// Produces the same bytes the tree writer would for the equivalent
/// attribute-free elements: namespace declarations in argument order on
/// the open tag, `xsi:type` on leaves and `bx:arrayType` on arrays when
/// [`XmlWriteOptions::emit_type_info`] is set, one
/// [`XmlWriteOptions::item_tag`] child per array item.
pub struct XmlFieldWriter<'o> {
    out: &'o mut String,
    opts: &'o XmlWriteOptions,
}

impl<'o> XmlFieldWriter<'o> {
    /// Write into `out` from its current end (callers clear it between
    /// messages to reuse capacity).
    pub fn new(out: &'o mut String, opts: &'o XmlWriteOptions) -> XmlFieldWriter<'o> {
        XmlFieldWriter { out, opts }
    }

    /// The underlying buffer (tests).
    pub fn as_str(&self) -> &str {
        self.out
    }

    fn open_tag(&mut self, name: &str, decls: &[(Option<&str>, &str)]) {
        self.out.push('<');
        self.out.push_str(name);
        for (prefix, uri) in decls {
            match prefix {
                Some(p) => {
                    self.out.push_str(" xmlns:");
                    self.out.push_str(p);
                }
                None => self.out.push_str(" xmlns"),
            }
            self.out.push_str("=\"");
            crate::escape::escape_attr(uri, self.out);
            self.out.push('"');
        }
    }

    fn close_tag(&mut self, name: &str) {
        self.out.push_str("</");
        self.out.push_str(name);
        self.out.push('>');
    }

    fn type_attr(&mut self, attr: &str, code: TypeCode) {
        if self.opts.emit_type_info {
            self.out.push(' ');
            self.out.push_str(attr);
            self.out.push_str("=\"");
            self.out.push_str(code.xsd_name());
            self.out.push('"');
        }
    }

    /// Open a component element (one with child elements). `name` is the
    /// lexical (possibly prefixed) form, e.g. `"d:Verify"`.
    pub fn begin_component(&mut self, name: &str, decls: &[(Option<&str>, &str)]) {
        self.open_tag(name, decls);
        self.out.push('>');
    }

    /// Close a component opened with
    /// [`begin_component`](XmlFieldWriter::begin_component).
    pub fn end_component(&mut self, name: &str) {
        self.close_tag(name);
    }

    /// A childless component, in the tree writer's self-closed form.
    pub fn empty_component(&mut self, name: &str, decls: &[(Option<&str>, &str)]) {
        self.open_tag(name, decls);
        self.out.push_str("/>");
    }

    /// A complete numeric leaf element.
    pub fn leaf<T: TypedText>(&mut self, name: &str, decls: &[(Option<&str>, &str)], value: T) {
        self.open_tag(name, decls);
        self.type_attr("xsi:type", T::CODE);
        self.out.push('>');
        value.push_text(self.out);
        self.close_tag(name);
    }

    /// A complete string leaf element (markup-escaped).
    pub fn leaf_str(&mut self, name: &str, decls: &[(Option<&str>, &str)], value: &str) {
        self.open_tag(name, decls);
        self.type_attr("xsi:type", TypeCode::Str);
        self.out.push('>');
        escape_text(value, self.out);
        self.close_tag(name);
    }

    /// A complete boolean leaf element.
    pub fn leaf_bool(&mut self, name: &str, decls: &[(Option<&str>, &str)], value: bool) {
        self.open_tag(name, decls);
        self.type_attr("xsi:type", TypeCode::Bool);
        self.out.push('>');
        self.out.push_str(if value { "true" } else { "false" });
        self.close_tag(name);
    }

    /// A complete array element: one item child per value, values
    /// through the numeric kernels — the same loop the tree writer runs,
    /// minus the tree.
    pub fn array<T: TypedText>(&mut self, name: &str, decls: &[(Option<&str>, &str)], values: &[T]) {
        self.open_tag(name, decls);
        self.type_attr("bx:arrayType", T::CODE);
        self.out.push('>');
        for &v in values {
            self.out.push('<');
            self.out.push_str(&self.opts.item_tag);
            self.out.push('>');
            v.push_text(self.out);
            self.out.push_str("</");
            self.out.push_str(&self.opts.item_tag);
            self.out.push('>');
        }
        self.close_tag(name);
    }
}

/// What [`XmlFieldReader::next`] saw: a start tag, an end tag, or the
/// end of input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XmlItem<'a> {
    /// An element opened (attributes already drained).
    Start(XmlHead<'a>),
    /// An element closed; the local name (prefix stripped).
    End(&'a str),
    /// End of input.
    Eof,
}

/// A parsed start tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct XmlHead<'a> {
    /// Full lexical name as written, e.g. `"d:Verify"`.
    pub name: &'a str,
    /// Local part (after the `:`, if any).
    pub local: &'a str,
    /// `<x/>`: the element is already closed; no content, no end tag.
    pub self_closing: bool,
    /// Attributes other than namespace declarations and the writer's own
    /// typing annotations (`xsi:type`, `bx:arrayType`). Schema-known
    /// consumers treat a nonzero count as "not mine" and fall back to
    /// the generic tree path (e.g. a `mustUnderstand` SOAP header).
    pub extra_attrs: usize,
}

fn local_of(name: &str) -> &str {
    match name.rfind(':') {
        Some(i) => &name[i + 1..],
        None => name,
    }
}

/// An allocation-free typed pull reader over the incremental lexer.
///
/// Typed readers match element *local* names and ignore the typing
/// annotations a writer may or may not have emitted — the schema is
/// known, the markup only has to agree with it. Any construct outside
/// the typed subset (mixed content, CDATA, unexpected attributes) is an
/// error at this layer; callers treat errors as "take the tree path".
pub struct XmlFieldReader<'a> {
    lex: Lexer<'a>,
}

impl<'a> XmlFieldReader<'a> {
    /// Read `input` from the beginning.
    pub fn new(input: &'a str) -> XmlFieldReader<'a> {
        XmlFieldReader { lex: Lexer::new(input) }
    }

    fn malformed(&self, what: impl Into<String>) -> XmlError {
        XmlError::Malformed {
            offset: self.lex.position(),
            what: what.into(),
        }
    }

    /// Pull the next structural item, skipping the XML declaration,
    /// comments, processing instructions, and inter-element whitespace.
    /// Non-whitespace text outside a leaf is an error (typed messages
    /// have no mixed content).
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> XmlResult<XmlItem<'a>> {
        loop {
            match self.lex.next_event()? {
                Event::Decl | Event::Comment(_) | Event::Pi { .. } => continue,
                Event::Text(t) => {
                    if t.trim().is_empty() {
                        continue;
                    }
                    return Err(self.malformed("unexpected text in typed content"));
                }
                Event::CData(_) => {
                    return Err(self.malformed("CDATA in typed content"));
                }
                Event::StartTagOpen { name } => return Ok(XmlItem::Start(self.drain_attrs(name)?)),
                Event::EndTag { name } => return Ok(XmlItem::End(local_of(name))),
                Event::Eof => return Ok(XmlItem::Eof),
            }
        }
    }

    fn drain_attrs(&mut self, name: &'a str) -> XmlResult<XmlHead<'a>> {
        let mut extra_attrs = 0;
        loop {
            match self.lex.next_attr()? {
                AttrEvent::Attr(n, _) => {
                    let benign = n == "xmlns"
                        || n.starts_with("xmlns:")
                        || local_of(n) == "type"
                        || local_of(n) == "arrayType"
                        || local_of(n) == "length";
                    if !benign {
                        extra_attrs += 1;
                    }
                }
                AttrEvent::TagEnd { self_closing } => {
                    return Ok(XmlHead {
                        name,
                        local: local_of(name),
                        self_closing,
                        extra_attrs,
                    })
                }
            }
        }
    }

    /// Read an opened leaf's text content and matching end tag, handing
    /// the (untrimmed) text to `consume`. A self-closed leaf yields `""`.
    fn leaf_text<R>(
        &mut self,
        head: &XmlHead<'a>,
        consume: impl FnOnce(&str) -> XmlResult<R>,
    ) -> XmlResult<R> {
        if head.self_closing {
            return consume("");
        }
        match self.lex.next_event()? {
            Event::Text(t) => {
                let r = consume(&t)?;
                match self.lex.next_event()? {
                    Event::EndTag { name } if local_of(name) == head.local => Ok(r),
                    _ => Err(self.malformed(format!("leaf {:?} not closed", head.local))),
                }
            }
            Event::EndTag { name } if local_of(name) == head.local => consume(""),
            _ => Err(self.malformed(format!("expected text content in {:?}", head.local))),
        }
    }

    /// Parse an opened leaf's numeric value (and consume its end tag).
    pub fn leaf_value<T: TypedText>(&mut self, head: &XmlHead<'a>) -> XmlResult<T> {
        let local = head.local;
        let pos = self.lex.position();
        self.leaf_text(head, |t| {
            // `ok_or_else`, not `ok_or`: the error string must only be
            // built on failure, or every parsed value pays a format+alloc.
            T::parse_text(t.trim()).ok_or_else(|| XmlError::Malformed {
                offset: pos,
                what: format!("bad {} value in {:?}", T::CODE.xsd_name(), local),
            })
        })
    }

    /// Read an opened string leaf into `out` (cleared, capacity kept) and
    /// consume its end tag. Strings are not trimmed — whitespace is data.
    pub fn leaf_str_into(&mut self, head: &XmlHead<'a>, out: &mut String) -> XmlResult<()> {
        self.leaf_text(head, |t| {
            out.clear();
            out.push_str(t);
            Ok(())
        })
    }

    /// Parse an opened boolean leaf (and consume its end tag).
    pub fn leaf_bool(&mut self, head: &XmlHead<'a>) -> XmlResult<bool> {
        let local = head.local;
        let pos = self.lex.position();
        self.leaf_text(head, |t| match t.trim() {
            "true" | "1" => Ok(true),
            "false" | "0" => Ok(false),
            other => Err(XmlError::Malformed {
                offset: pos,
                what: format!("bad boolean {other:?} in {local:?}"),
            }),
        })
    }

    /// Refill `out` (cleared, capacity kept) from an opened array
    /// element's item children, consuming the array's end tag. Item tag
    /// names are not checked — any single-text-child element sequence is
    /// accepted, matching the tree reader's leniency about
    /// [`XmlWriteOptions::item_tag`].
    pub fn array_into<T: TypedText>(
        &mut self,
        head: &XmlHead<'a>,
        out: &mut Vec<T>,
    ) -> XmlResult<()> {
        out.clear();
        if head.self_closing {
            return Ok(());
        }
        loop {
            // Plain `<i>value</i>` items (the shape both our writers emit)
            // go through the item loop the tree reader shares. Anything
            // else — attributes, entities, self-closing items, the array's
            // end tag — takes one step of the event path below first.
            if self.lex.plain_items_into(out).is_some() {
                return Err(self.malformed(format!(
                    "bad {} value in array {:?}",
                    T::CODE.xsd_name(),
                    head.local
                )));
            }
            match self.next()? {
                XmlItem::Start(item) => {
                    let v = self.leaf_value::<T>(&item)?;
                    out.push(v);
                }
                XmlItem::End(local) if local == head.local => return Ok(()),
                other => {
                    return Err(self.malformed(format!(
                        "unexpected {other:?} inside array {:?}",
                        head.local
                    )))
                }
            }
        }
    }

    /// Skip an opened element and everything inside it.
    pub fn skip(&mut self, head: &XmlHead<'a>) -> XmlResult<()> {
        if head.self_closing {
            return Ok(());
        }
        let mut depth = 1usize;
        loop {
            // Raw events, not `next()`: skipped subtrees may legitimately
            // contain text and CDATA.
            match self.lex.next_event()? {
                Event::StartTagOpen { name } => {
                    let head = self.drain_attrs(name)?;
                    if !head.self_closing {
                        depth += 1;
                    }
                }
                Event::EndTag { .. } => {
                    depth -= 1;
                    if depth == 0 {
                        return Ok(());
                    }
                }
                Event::Eof => return Err(self.malformed("input ended inside skipped element")),
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::{to_string_with, XmlWriteOptions};
    use bxdm::{ArrayValue, AtomicValue, Document, Element};

    fn tree_equivalent(values: &[f64], count: i64) -> Document {
        Document::with_root(
            Element::component("d:set")
                .with_namespace("d", "http://example.org/data")
                .with_child(Element::array("d:values", ArrayValue::F64(values.to_vec())))
                .with_child(Element::leaf("d:count", AtomicValue::I64(count))),
        )
    }

    fn typed_equivalent(values: &[f64], count: i64, opts: &XmlWriteOptions) -> String {
        let mut out = String::new();
        let mut w = XmlFieldWriter::new(&mut out, opts);
        w.begin_component("d:set", &[(Some("d"), "http://example.org/data")]);
        w.array("d:values", &[], values);
        w.leaf("d:count", &[], count);
        w.end_component("d:set");
        out
    }

    #[test]
    fn typed_write_is_byte_identical_to_tree_write() {
        for opts in [
            XmlWriteOptions::default(),
            XmlWriteOptions {
                emit_type_info: false,
                item_tag: "i".to_owned(),
                ..Default::default()
            },
        ] {
            let values = [1.5, -2.0, 0.0, 330.25];
            let tree = to_string_with(&tree_equivalent(&values, 4), &opts).unwrap();
            assert_eq!(typed_equivalent(&values, 4, &opts), tree);
        }
    }

    #[test]
    fn typed_read_recovers_fields_from_either_writer() {
        let values = [180.5, 207.25, 330.0];
        for (markup, label) in [
            (
                to_string_with(&tree_equivalent(&values, 3), &XmlWriteOptions::default()).unwrap(),
                "tree",
            ),
            (
                typed_equivalent(&values, 3, &XmlWriteOptions::default()),
                "typed",
            ),
        ] {
            let mut r = XmlFieldReader::new(&markup);
            let XmlItem::Start(set) = r.next().unwrap() else {
                panic!("{label}: expected start")
            };
            assert_eq!(set.local, "set");
            assert_eq!(set.extra_attrs, 0);
            let XmlItem::Start(arr) = r.next().unwrap() else {
                panic!("{label}: expected array")
            };
            let mut out = vec![0.0; 1];
            r.array_into::<f64>(&arr, &mut out).unwrap();
            assert_eq!(out, values, "{label}");
            let XmlItem::Start(leaf) = r.next().unwrap() else {
                panic!("{label}: expected leaf")
            };
            assert_eq!(r.leaf_value::<i64>(&leaf).unwrap(), 3, "{label}");
            assert_eq!(r.next().unwrap(), XmlItem::End("set"), "{label}");
            assert_eq!(r.next().unwrap(), XmlItem::Eof, "{label}");
        }
    }

    #[test]
    fn special_floats_roundtrip() {
        let values = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0];
        let opts = XmlWriteOptions::default();
        let mut out = String::new();
        XmlFieldWriter::new(&mut out, &opts).array("v", &[], &values);
        let mut r = XmlFieldReader::new(&out);
        let XmlItem::Start(h) = r.next().unwrap() else { panic!() };
        let mut back: Vec<f64> = Vec::new();
        r.array_into(&h, &mut back).unwrap();
        let bits: Vec<u64> = back.iter().map(|v| v.to_bits()).collect();
        // NaN canonicalizes; the rest are exact (including -0.0's sign).
        assert!(back[0].is_nan());
        assert_eq!(bits[1..], values[1..].iter().map(|v| v.to_bits()).collect::<Vec<_>>()[..]);
    }

    #[test]
    fn strings_escape_and_unescape() {
        let opts = XmlWriteOptions::default();
        let mut out = String::new();
        XmlFieldWriter::new(&mut out, &opts).leaf_str("s", &[], "a <b> & \"c\"");
        assert_eq!(out, r#"<s xsi:type="xsd:string">a &lt;b&gt; &amp; "c"</s>"#);
        let mut r = XmlFieldReader::new(&out);
        let XmlItem::Start(h) = r.next().unwrap() else { panic!() };
        let mut s = String::new();
        r.leaf_str_into(&h, &mut s).unwrap();
        assert_eq!(s, "a <b> & \"c\"");
    }

    #[test]
    fn foreign_attributes_are_counted_and_skippable() {
        let markup = r#"<h:stamp xmlns:h="u" soapenv:mustUnderstand="1"><x>1</x></h:stamp><after/>"#;
        let mut r = XmlFieldReader::new(markup);
        let XmlItem::Start(h) = r.next().unwrap() else { panic!() };
        assert_eq!(h.extra_attrs, 1);
        r.skip(&h).unwrap();
        let XmlItem::Start(after) = r.next().unwrap() else { panic!() };
        assert_eq!(after.local, "after");
        assert!(after.self_closing);
    }

    #[test]
    fn malformed_typed_content_errors_not_panics() {
        for bad in [
            "<a>text<b/></a>",                       // mixed content
            r#"<v><item>notanumber</item></v>"#,     // bad numeric
            r#"<n xsi:type="xsd:int">1e3</n>"#,      // non-integer int
            "<a><b></a>",                            // mismatched nesting (skip)
        ] {
            let mut r = XmlFieldReader::new(bad);
            let first = r.next();
            let result: XmlResult<()> = first.and_then(|item| match item {
                XmlItem::Start(h) if h.local == "v" => {
                    let mut out: Vec<f64> = Vec::new();
                    r.array_into(&h, &mut out)
                }
                XmlItem::Start(h) if h.local == "n" => r.leaf_value::<i32>(&h).map(|_| ()),
                XmlItem::Start(_) => loop {
                    // Walk with the typed `next()`: mixed content errors.
                    match r.next()? {
                        XmlItem::Eof => return Ok(()),
                        _ => continue,
                    }
                },
                _ => Ok(()),
            });
            // "<a><b></a>" skip: lexer is name-agnostic on end tags, so
            // the skip itself succeeds; the others must error.
            if bad != "<a><b></a>" {
                assert!(result.is_err(), "{bad:?} should error");
            }
        }
    }
}
