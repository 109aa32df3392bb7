//! Field-at-a-time textual XML access: the schema-known fast path.
//!
//! [`crate::writer`]/[`crate::reader`] serialize any bXDM tree, but a
//! caller whose message type is statically known can emit and consume
//! the markup directly from typed fields. [`XmlFieldWriter`] produces
//! output **byte-identical** to the tree writer's for the attribute-free
//! element shapes typed messages take: both run on the same emitter.
//! [`XmlFieldReader`] pulls typed values off the same event machine the
//! tree reader runs on, so it accepts no document `parse` rejects, and
//! it materializes no attribute vectors or tree — the decode side stays
//! allocation-free at steady state because numeric parsing borrows and
//! array/string reads refill caller-owned buffers.

use std::borrow::Cow;

use xbs::TypeCode;

use crate::error::{XmlError, XmlResult};
use crate::escape::escape_text;
use crate::markup::{local_of, Emitter, Kind, Markup, Step, TextAcc};
use crate::num;
use crate::writer::XmlWriteOptions;

/// A numeric type with an XML Schema lexical form, as typed fields use
/// it: written in place with the [`crate::num`] writers, parsed without
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
    /// mismatch, including range overflow. Calls the parser
    /// `bxdm::AtomicValue::parse_as` calls for [`Self::CODE`], so the
    /// typed and tree XML readers accept one number language.
    fn parse_text(t: &str) -> Option<Self>;
}

macro_rules! int_typed_text {
    ($write:ident, $wide:ty: $($t:ty => $code:ident),* $(,)?) => {$(
        impl TypedText for $t {
            const CODE: TypeCode = TypeCode::$code;
            fn push_text(self, out: &mut String) {
                num::$write(self as $wide, out);
            }
            fn parse_text(t: &str) -> Option<$t> {
                t.parse().ok()
            }
        }
    )*};
}

int_typed_text! { write_i64, i64: i8 => I8, i16 => I16, i32 => I32, i64 => I64 }
int_typed_text! { write_u64, u64: u8 => U8, u16 => U16, u32 => U32, u64 => U64 }

impl TypedText for f32 {
    const CODE: TypeCode = TypeCode::F32;
    fn push_text(self, out: &mut String) {
        bxdm::value::write_f32_lexical(self, out);
    }
    fn parse_text(t: &str) -> Option<f32> {
        bxdm::value::parse_f32_lexical(t)
    }
}

impl TypedText for f64 {
    const CODE: TypeCode = TypeCode::F64;
    fn push_text(self, out: &mut String) {
        num::write_f64(self, out);
    }
    fn parse_text(t: &str) -> Option<f64> {
        bxdm::value::parse_f64_lexical(t)
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
    e: Emitter<'o>,
}

impl<'o> XmlFieldWriter<'o> {
    /// Write into `out` from its current end (callers clear it between
    /// messages to reuse capacity).
    pub fn new(out: &'o mut String, opts: &'o XmlWriteOptions) -> XmlFieldWriter<'o> {
        XmlFieldWriter {
            e: Emitter { out, opts },
        }
    }

    /// The underlying buffer (tests).
    pub fn as_str(&self) -> &str {
        self.e.out
    }

    /// Open a component element (one with child elements). `name` is the
    /// lexical (possibly prefixed) form, e.g. `"d:Verify"`.
    pub fn begin_component(&mut self, name: &str, decls: &[(Option<&str>, &str)]) {
        self.e.open_tag(name, decls.iter().copied());
        self.e.out.push('>');
    }

    /// Close a component opened with
    /// [`begin_component`](XmlFieldWriter::begin_component).
    pub fn end_component(&mut self, name: &str) {
        self.e.close_tag(name);
    }

    /// A childless component, in the tree writer's self-closed form.
    pub fn empty_component(&mut self, name: &str, decls: &[(Option<&str>, &str)]) {
        self.e.open_tag(name, decls.iter().copied());
        self.e.out.push_str("/>");
    }

    fn leaf_with(
        &mut self,
        name: &str,
        decls: &[(Option<&str>, &str)],
        code: TypeCode,
        text: impl FnOnce(&mut String),
    ) {
        self.e.open_tag(name, decls.iter().copied());
        self.e.annotate("xsi:type", code);
        self.e.out.push('>');
        text(self.e.out);
        self.e.close_tag(name);
    }

    /// A complete numeric leaf element.
    pub fn leaf<T: TypedText>(&mut self, name: &str, decls: &[(Option<&str>, &str)], value: T) {
        self.leaf_with(name, decls, T::CODE, |out| value.push_text(out));
    }

    /// A complete string leaf element (markup-escaped).
    pub fn leaf_str(&mut self, name: &str, decls: &[(Option<&str>, &str)], value: &str) {
        self.leaf_with(name, decls, TypeCode::Str, |out| escape_text(value, out));
    }

    /// A complete boolean leaf element.
    pub fn leaf_bool(&mut self, name: &str, decls: &[(Option<&str>, &str)], value: bool) {
        self.leaf_with(name, decls, TypeCode::Bool, |out| {
            out.push_str(if value { "true" } else { "false" })
        });
    }

    /// A complete array element: one item child per value, through the
    /// item loop the tree writer runs.
    pub fn array<T: TypedText>(
        &mut self,
        name: &str,
        decls: &[(Option<&str>, &str)],
        values: &[T],
    ) {
        self.e.open_tag(name, decls.iter().copied());
        self.e.annotate("bx:arrayType", T::CODE);
        self.e.out.push('>');
        self.e.items(values);
        self.e.close_tag(name);
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
    /// Local part: after the first `:`, as `bxdm::QName::parse` splits it.
    pub local: &'a str,
    /// `<x/>`: the element is already closed; no content, no end tag.
    pub self_closing: bool,
    /// Attributes other than namespace declarations and the type
    /// annotation in effect (`xsi:type`, or `bx:arrayType` when no
    /// `xsi:type` is present). Schema-known consumers treat a nonzero
    /// count as "not mine" and fall back to the generic tree path (e.g.
    /// a `mustUnderstand` SOAP header).
    pub extra_attrs: usize,
    /// What the annotation makes of the element.
    pub(crate) kind: Kind,
    /// Elements open around this one.
    pub(crate) level: usize,
}

impl XmlHead<'_> {
    /// Is this element annotated as an array of `T`? An unannotated
    /// element is not: the tree reader keeps it as a component.
    pub fn is_array_of<T: TypedText>(&self) -> bool {
        self.kind == Kind::Array(T::CODE)
    }
}

/// An allocation-free typed pull reader.
///
/// Callers match element *local* names — the schema is known, the
/// markup only has to agree with it. The reader checks everything
/// `parse` checks (end tags match on the full name, one root, typed
/// values inside skipped elements), so a walk that reaches
/// [`finish`](XmlFieldReader::finish) without an error read a document
/// `parse` accepts. A typed read honours the element's annotation: one
/// naming another type is an error, a missing one is accepted.
/// Constructs outside the typed subset (mixed content, CDATA, markup
/// inside an unannotated value) are errors at this layer. After an
/// error the reader's state is unspecified: stop reading.
pub struct XmlFieldReader<'a> {
    m: Markup<'a>,
    /// An annotated head [`next`](XmlFieldReader::next) returned, whose
    /// value read or skip is still due.
    typed: Option<XmlHead<'a>>,
}

impl<'a> XmlFieldReader<'a> {
    /// Read `input` from the beginning.
    pub fn new(input: &'a str) -> XmlFieldReader<'a> {
        XmlFieldReader {
            m: Markup::new(input),
            typed: None,
        }
    }

    fn malformed(&self, what: impl Into<String>) -> XmlError {
        XmlError::Malformed {
            offset: self.m.position(),
            what: what.into(),
        }
    }

    /// Pull the next structural item, skipping comments, processing
    /// instructions and inter-element whitespace. Non-whitespace text is
    /// an error (typed messages have no mixed content), as is reading an
    /// annotated element's content this way.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> XmlResult<XmlItem<'a>> {
        if let Some(head) = self.typed {
            let what = format!("typed element {:?} read as a component", head.local);
            return Err(self.malformed(what));
        }
        loop {
            match self.m.step()? {
                Step::Open(name) => {
                    let head = self.m.head(name, |_| {})?;
                    if head.kind != Kind::Component {
                        self.typed = Some(head);
                    }
                    return Ok(XmlItem::Start(head));
                }
                Step::Close(name) => return Ok(XmlItem::End(local_of(name))),
                Step::Text(t) if t.trim().is_empty() => {}
                Step::Text(_) | Step::CData(_) => {
                    return Err(self.malformed("character data in typed content"))
                }
                Step::Comment(_) | Step::Pi(..) => {}
                Step::Eof => return Ok(XmlItem::Eof),
            }
        }
    }

    /// Require the end of the document: the root element closed, and
    /// nothing but comments, processing instructions and whitespace
    /// after it.
    pub fn finish(&mut self) -> XmlResult<()> {
        match self.next()? {
            XmlItem::Eof => Ok(()),
            other => Err(self.malformed(format!("expected end of input, found {other:?}"))),
        }
    }

    /// Check that `head` is the element to read now — the innermost open
    /// one, or the annotated head `next` just returned — and that its
    /// annotation, if it has one, is `want`.
    fn claim(&mut self, head: &XmlHead<'a>, want: Option<Kind>) -> XmlResult<()> {
        let current = match self.typed {
            Some(typed) => typed == *head,
            None => head.kind == Kind::Component,
        } && self.m.depth() == head.level + usize::from(!head.self_closing);
        if !current {
            return Err(self.malformed(format!("{:?} is not the element being read", head.local)));
        }
        if head.kind != Kind::Component && want.is_some_and(|k| k != head.kind) {
            return Err(self.malformed(format!("{:?} is annotated {:?}", head.local, head.kind)));
        }
        self.typed = None;
        Ok(())
    }

    /// Read an opened leaf's text content through its end tag.
    fn leaf_text(&mut self, head: &XmlHead<'a>, code: TypeCode) -> XmlResult<TextAcc<'a>> {
        self.claim(head, Some(Kind::Leaf(code)))?;
        self.m.text_body(head)
    }

    /// Parse an opened leaf's numeric value (and consume its end tag).
    pub fn leaf_value<T: TypedText>(&mut self, head: &XmlHead<'a>) -> XmlResult<T> {
        let text = self.leaf_text(head, T::CODE)?;
        // `ok_or_else`, not `ok_or`: the error string must only be
        // built on failure, or every parsed value pays a format+alloc.
        T::parse_text(text.as_str().trim()).ok_or_else(|| {
            let what = format!("bad {} value in {:?}", T::CODE.xsd_name(), head.local);
            self.malformed(what)
        })
    }

    /// Read an opened leaf whatever its annotation, or an unannotated
    /// element holding only character data, through its end tag: the
    /// annotated type (`None` when unannotated) and the text, untrimmed
    /// and not yet checked against the type. An array annotation, or
    /// markup inside an unannotated element, is an error.
    pub fn leaf_text_any(
        &mut self,
        head: &XmlHead<'a>,
    ) -> XmlResult<(Option<TypeCode>, Cow<'a, str>)> {
        let code = match head.kind {
            Kind::Leaf(code) => Some(code),
            Kind::Component => None,
            Kind::Array(_) => {
                return Err(self.malformed(format!("{:?} is annotated as an array", head.local)))
            }
        };
        self.claim(head, None)?;
        Ok((code, self.m.text_body(head)?.into_cow()))
    }

    /// Read an opened string leaf into `out` (cleared, capacity kept) and
    /// consume its end tag. Strings are not trimmed — whitespace is data.
    pub fn leaf_str_into(&mut self, head: &XmlHead<'a>, out: &mut String) -> XmlResult<()> {
        let text = self.leaf_text(head, TypeCode::Str)?;
        out.clear();
        out.push_str(text.as_str());
        Ok(())
    }

    /// Parse an opened boolean leaf (and consume its end tag).
    pub fn leaf_bool(&mut self, head: &XmlHead<'a>) -> XmlResult<bool> {
        match self.leaf_text(head, TypeCode::Bool)?.as_str().trim() {
            "true" | "1" => Ok(true),
            "false" | "0" => Ok(false),
            other => Err(self.malformed(format!("bad boolean {other:?} in {:?}", head.local))),
        }
    }

    /// Refill `out` (cleared, capacity kept) from an opened array
    /// element's item children, consuming the array's end tag. Item tag
    /// names are not checked, matching the tree reader's leniency about
    /// [`XmlWriteOptions::item_tag`].
    pub fn array_into<T: TypedText>(
        &mut self,
        head: &XmlHead<'a>,
        out: &mut Vec<T>,
    ) -> XmlResult<()> {
        out.clear();
        self.claim(head, Some(Kind::Array(T::CODE)))?;
        self.m.array_body(head, out)
    }

    /// Skip an opened element and everything inside it, checking it as
    /// the tree reader would read it.
    pub fn skip(&mut self, head: &XmlHead<'a>) -> XmlResult<()> {
        self.claim(head, None)?;
        self.m.skip(head)
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
        let markup =
            r#"<r><h:stamp xmlns:h="u" soapenv:mustUnderstand="1"><x>1</x></h:stamp><after/></r>"#;
        let mut r = XmlFieldReader::new(markup);
        let XmlItem::Start(_) = r.next().unwrap() else { panic!() };
        let XmlItem::Start(h) = r.next().unwrap() else { panic!() };
        assert_eq!(h.extra_attrs, 1);
        r.skip(&h).unwrap();
        let XmlItem::Start(after) = r.next().unwrap() else { panic!() };
        assert_eq!(after.local, "after");
        assert!(after.self_closing);
        assert_eq!(r.next().unwrap(), XmlItem::End("r"));
        r.finish().unwrap();
    }

    #[test]
    fn annotated_elements_are_read_as_values_not_walked() {
        // `parse` reads the root as an int leaf whose text, "zz", is no
        // int; walking into it with `next` would see only a component.
        let xml = r#"<r xsi:type="xsd:int"><x>zz</x></r>"#;
        assert!(crate::parse(xml).is_err());
        for skip in [false, true] {
            let mut r = XmlFieldReader::new(xml);
            let XmlItem::Start(root) = r.next().unwrap() else { panic!() };
            let read = if skip { r.skip(&root) } else { r.next().map(drop) };
            assert!(read.is_err(), "skip: {skip}");
        }
    }

    #[test]
    fn malformed_typed_content_errors_not_panics() {
        // (input, read the root with `skip` instead of walking it)
        for (bad, skip) in [
            ("<a>text<b/></a>", false),                   // mixed content
            (r#"<v><item>notanumber</item></v>"#, false), // bad numeric
            (r#"<n xsi:type="xsd:int">1e3</n>"#, false),  // non-integer int
            ("<a><b></a>", true),                         // mismatched nesting
        ] {
            let mut r = XmlFieldReader::new(bad);
            let first = r.next();
            let result: XmlResult<()> = first.and_then(|item| match item {
                XmlItem::Start(h) if skip => r.skip(&h),
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
            assert!(result.is_err(), "{bad:?} should error");
        }
    }

    /// One number language: for every numeric type, `parse_text` on the
    /// trimmed text (as both readers call it) and `AtomicValue::parse_as`
    /// give the same value or both reject, over signs, leading zeros,
    /// float forms, special values, malformed and out-of-range spellings.
    #[test]
    fn parse_text_accepts_exactly_what_parse_as_accepts() {
        const SPELLINGS: &[&str] = &[
            // Signs, zeros and the edges of the narrow types.
            "0",
            "5",
            "+5",
            "-0",
            "-5",
            "127",
            "128",
            "-128",
            "-129",
            "255",
            "256",
            "-32769",
            "65536",
            "4294967296",
            "007",
            "-007",
            " 42 ",
            // Float forms.
            "1.",
            ".5",
            "-.5",
            "1.5",
            "1E+03",
            "1e3",
            "1e-3",
            "1e309",
            "3.4028236e38",
            // Special values.
            "inf",
            "INF",
            "+INF",
            "-INF",
            "-inf",
            "NaN",
            "nan",
            "infinity",
            "Infinity",
            "-infinity",
            // Malformed.
            "0x10",
            "1e",
            "",
            "+",
            "-",
            "1_000",
            "1 000",
            // The edges of the 64-bit types.
            "9223372036854775808",
            "-9223372036854775808",
            "-9223372036854775809",
            "18446744073709551615",
            "18446744073709551616",
        ];
        let mut accepted = [0usize; 10];
        macro_rules! agree {
            ($($t:ty => $v:ident),* $(,)?) => {$(
                for &s in SPELLINGS {
                    let typed = <$t>::parse_text(s.trim());
                    let tree = match AtomicValue::parse_as(<$t>::CODE, s) {
                        Ok(AtomicValue::$v(v)) => Some(v),
                        Ok(other) => panic!("parse_as gave {other:?} for {s:?}"),
                        Err(_) => None,
                    };
                    // `{:?}` tells -0.0 from 0.0 and matches NaN with NaN.
                    assert_eq!(
                        format!("{typed:?}"),
                        format!("{tree:?}"),
                        "{} spelling {s:?}",
                        stringify!($t)
                    );
                    accepted[<$t>::CODE as usize - 1] += usize::from(typed.is_some());
                }
            )*};
        }
        agree!(
            i8 => I8, u8 => U8, i16 => I16, u16 => U16, i32 => I32,
            u32 => U32, i64 => I64, u64 => U64, f32 => F32, f64 => F64,
        );
        assert!(
            accepted.iter().all(|&n| n > 0 && n < SPELLINGS.len()),
            "every type accepts some spellings and rejects others: {accepted:?}"
        );
    }
}
