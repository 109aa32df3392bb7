//! The XML core: the one event machine both readers run on and the one
//! emitter both writers run on.
//!
//! [`Markup`] turns lexer events into document events and owns every
//! rule the byte language has beyond tokens: end tags match their start
//! tags on the full lexical name, one root element, a declaration only
//! before the root, no end of input inside an element, [`MAX_DEPTH`],
//! and how a start tag's attributes classify the element (namespace
//! declarations, the `xsi:type` and `bx:arrayType` annotations, ordinary
//! attributes). It also reads the bodies of typed elements — a leaf's
//! text, an array's items — and skips whole elements, checking them the
//! way the tree reader would read them. The tree reader
//! ([`crate::reader`]) builds bXDM nodes from these events; the typed
//! reader ([`crate::XmlFieldReader`]) hands them to schema-known code.
//! Either way a document passes the same checks, so the typed reader
//! cannot accept bytes `parse` rejects.
//!
//! Names are not resolved against namespace declarations; SOAP's
//! envelope check matches local names on both paths.
//!
//! [`Emitter`] is the writing half: start tags with their declarations
//! and attributes, the type annotations, the per-type item loop and end
//! tags, for the tree writer ([`crate::writer`]) and
//! [`crate::XmlFieldWriter`] alike.

use std::borrow::Cow;

use bxdm::{ArrayValue, AtomicValue, QName};
use xbs::TypeCode;

use crate::error::{XmlError, XmlResult};
use crate::escape::escape_attr;
use crate::field::{TypedText, XmlHead};
use crate::lexer::{AttrEvent, Event, Lexer};
use crate::writer::XmlWriteOptions;

/// Maximum element nesting depth either reader accepts. Array items are
/// values, not elements, and do not count.
pub const MAX_DEPTH: usize = 512;

/// Run `$body` with `$v` bound to the payload of whichever numeric
/// variant `$value` holds — an `ArrayValue` or an `AtomicValue`, whose
/// numeric variants share their names — then any further arms (the
/// atomic `Str` and `Bool`). One match, then code monomorphized per
/// element type.
macro_rules! with_numeric {
    ($enum:ident, $value:expr, $v:ident => $body:expr $(, $pat:pat => $arm:expr)* $(,)?) => {
        match $value {
            $enum::I8($v) => $body,
            $enum::U8($v) => $body,
            $enum::I16($v) => $body,
            $enum::U16($v) => $body,
            $enum::I32($v) => $body,
            $enum::U32($v) => $body,
            $enum::I64($v) => $body,
            $enum::U64($v) => $body,
            $enum::F32($v) => $body,
            $enum::F64($v) => $body,
            $($pat => $arm,)*
        }
    };
}
pub(crate) use with_numeric;

/// What an element's annotations make of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    /// No annotation: child elements and text.
    Component,
    /// `xsi:type`: a typed leaf value.
    Leaf(TypeCode),
    /// `bx:arrayType` without `xsi:type`: a packed array of items.
    Array(TypeCode),
}

/// One attribute the tree reader keeps.
pub(crate) enum Attr<'a> {
    /// A namespace declaration: the prefix (`None` for `xmlns`) and URI.
    Ns(Option<&'a str>, Cow<'a, str>),
    /// An ordinary attribute, taking index `at` among the element's
    /// ordinary attributes.
    Plain(&'a str, Cow<'a, str>, usize),
}

/// One document event.
pub(crate) enum Step<'a> {
    /// A start tag's name; drain it with [`Markup::head`].
    Open(&'a str),
    /// The end tag of the innermost open element.
    Close(&'a str),
    Text(Cow<'a, str>),
    CData(&'a str),
    Comment(&'a str),
    Pi(&'a str, &'a str),
    /// The end of a complete document.
    Eof,
}

/// A typed value's text: borrowed from the input while it is one run,
/// owned once pieces join (CDATA, comments or markup inside the value —
/// shapes the writers never emit).
pub(crate) enum TextAcc<'a> {
    Empty,
    Single(Cow<'a, str>),
    Joined(String),
}

impl<'a> TextAcc<'a> {
    fn push(&mut self, piece: Cow<'a, str>) {
        match self {
            TextAcc::Empty => *self = TextAcc::Single(piece),
            TextAcc::Single(first) => *self = TextAcc::Joined(format!("{first}{piece}")),
            TextAcc::Joined(buf) => buf.push_str(&piece),
        }
    }

    pub(crate) fn as_str(&self) -> &str {
        match self {
            TextAcc::Empty => "",
            TextAcc::Single(s) => s,
            TextAcc::Joined(s) => s,
        }
    }

    pub(crate) fn into_cow(self) -> Cow<'a, str> {
        match self {
            TextAcc::Empty => Cow::Borrowed(""),
            TextAcc::Single(s) => s,
            TextAcc::Joined(s) => Cow::Owned(s),
        }
    }
}

/// The local part of a lexical name: after the first `:`, as
/// `bxdm::QName::parse` splits it, so both readers name an element alike.
pub(crate) fn local_of(name: &str) -> &str {
    match name.bytes().position(|b| b == b':') {
        Some(colon) => &name[colon + 1..],
        None => name,
    }
}

fn structure(what: impl Into<String>) -> XmlError {
    XmlError::Structure { what: what.into() }
}

fn bad_value(what: String) -> XmlError {
    XmlError::BadTypedValue { what }
}

fn type_code(name: &str, attr: &str) -> XmlResult<TypeCode> {
    TypeCode::from_xsd_name(name).ok_or_else(|| bad_value(format!("unknown {attr} {name:?}")))
}

/// The event machine over one input.
pub(crate) struct Markup<'a> {
    lex: Lexer<'a>,
    /// Byte offsets of the open elements' names, outermost first: a
    /// fixed array, so a reader allocates nothing.
    open: [usize; MAX_DEPTH + 1],
    depth: usize,
    /// An array item is open; it and what it holds sit one level deeper
    /// than they count.
    in_item: bool,
    /// The root element has started.
    rooted: bool,
}

impl<'a> Markup<'a> {
    pub(crate) fn new(input: &'a str) -> Markup<'a> {
        Markup {
            lex: Lexer::new(input),
            open: [0; MAX_DEPTH + 1],
            depth: 0,
            in_item: false,
            rooted: false,
        }
    }

    /// Number of open elements.
    pub(crate) fn depth(&self) -> usize {
        self.depth
    }

    pub(crate) fn position(&self) -> usize {
        self.lex.position()
    }

    /// Pull the next document event. Whitespace between top-level nodes
    /// and a leading declaration are consumed here; every document rule
    /// is checked here.
    #[inline]
    pub(crate) fn step(&mut self) -> XmlResult<Step<'a>> {
        loop {
            let offset = self.lex.position();
            let top = self.depth == 0;
            return Ok(match self.lex.next_event()? {
                Event::StartTagOpen { name } => {
                    if top && self.rooted {
                        return Err(structure("multiple root elements"));
                    }
                    self.rooted = true;
                    Step::Open(name)
                }
                Event::EndTag { name } => {
                    let Some(depth) = self.depth.checked_sub(1) else {
                        return Err(structure(format!(
                            "close tag </{name}> with no open element"
                        )));
                    };
                    let at = self.open[depth];
                    if !self.lex.closes(at, name) {
                        return Err(XmlError::MismatchedTag {
                            offset,
                            expected: self.lex.name_at(at).to_owned(),
                            found: name.to_owned(),
                        });
                    }
                    self.depth = depth;
                    Step::Close(name)
                }
                Event::Text(t) if top && t.trim().is_empty() => continue,
                Event::Text(_) if top => {
                    return Err(structure("character data outside the root element"))
                }
                Event::CData(_) if top => return Err(structure("CDATA outside the root element")),
                Event::Text(t) => Step::Text(t),
                Event::CData(t) => Step::CData(t),
                Event::Comment(c) => Step::Comment(c),
                Event::Pi { target, data } => Step::Pi(target, data),
                Event::Decl if !self.rooted => continue,
                Event::Decl => return Err(structure("XML declaration not at document start")),
                Event::Eof if !top => {
                    let name = self.lex.name_at(self.open[self.depth - 1]);
                    return Err(XmlError::UnexpectedEof {
                        what: format!("element <{name}> never closed"),
                    });
                }
                Event::Eof if !self.rooted => {
                    return Err(structure("document has no root element"))
                }
                Event::Eof => Step::Eof,
            });
        }
    }

    /// Open the element named `name`, unless `self_closing`. An item or
    /// anything inside one may sit one level past [`MAX_DEPTH`].
    fn push(&mut self, name: &'a str, self_closing: bool, item: bool) -> XmlResult<()> {
        if self_closing {
            return Ok(());
        }
        self.check_depth(item)?;
        self.open[self.depth] = self.lex.offset_of(name);
        self.depth += 1;
        self.in_item |= item;
        Ok(())
    }

    fn check_depth(&self, item: bool) -> XmlResult<()> {
        let limit = MAX_DEPTH + usize::from(item || self.in_item);
        if self.depth >= limit {
            return Err(structure(format!(
                "element nesting exceeds MAX_DEPTH {MAX_DEPTH}"
            )));
        }
        Ok(())
    }

    /// Drain the start tag [`Step::Open`] named and classify the
    /// element: the first `xsi:type` makes it a leaf; the first
    /// `bx:arrayType` makes it an array unless an `xsi:type` is also
    /// present, in which case it reverts to an ordinary attribute at its
    /// own position. Namespace declarations and ordinary attributes go
    /// to `keep` in document order.
    #[inline]
    pub(crate) fn head(
        &mut self,
        name: &'a str,
        mut keep: impl FnMut(Attr<'a>),
    ) -> XmlResult<XmlHead<'a>> {
        self.check_depth(false)?;
        let mut plain = 0usize;
        let mut leaf: Option<Cow<'a, str>> = None;
        let mut array: Option<(Cow<'a, str>, usize)> = None;
        let self_closing = loop {
            match self.lex.next_attr()? {
                AttrEvent::TagEnd { self_closing } => break self_closing,
                AttrEvent::Attr(raw, value) => {
                    if raw == "xmlns" || raw.starts_with("xmlns:") {
                        keep(Attr::Ns(raw.strip_prefix("xmlns:"), value));
                        continue;
                    }
                    if raw == "xsi:type" && leaf.is_none() {
                        if let Some((v, at)) = array.take() {
                            keep(Attr::Plain("bx:arrayType", v, at));
                            plain += 1;
                        }
                        leaf = Some(value);
                    } else if raw == "bx:arrayType" && leaf.is_none() && array.is_none() {
                        array = Some((value, plain));
                    } else {
                        keep(Attr::Plain(raw, value, plain));
                        plain += 1;
                    }
                }
            }
        };
        let kind = match (leaf, array) {
            (Some(t), _) => Kind::Leaf(type_code(&t, "xsi:type")?),
            (None, Some((t, _))) => match type_code(&t, "bx:arrayType")? {
                TypeCode::Str | TypeCode::Bool => {
                    return Err(bad_value(format!(
                        "{t:?} is not a valid array element type"
                    )))
                }
                code => Kind::Array(code),
            },
            (None, None) => Kind::Component,
        };
        let level = self.depth;
        self.push(name, self_closing, false)?;
        Ok(XmlHead {
            name,
            local: local_of(name),
            self_closing,
            extra_attrs: plain,
            kind,
            level,
        })
    }

    /// Drain a start tag whose attributes mean nothing (an array item,
    /// or markup inside a typed value); returns `self_closing`.
    fn open_plain(&mut self, name: &'a str, item: bool) -> XmlResult<bool> {
        let self_closing = loop {
            if let AttrEvent::TagEnd { self_closing } = self.lex.next_attr()? {
                break self_closing;
            }
        };
        self.push(name, self_closing, item)?;
        Ok(self_closing)
    }

    /// Read the body of the leaf `head` opened, through its end tag, and
    /// return its character data. Markup inside an annotated leaf is
    /// read for its text (XPath `string()`), attributes ignored; inside
    /// an unannotated element, which the tree reader keeps as a
    /// component, it is an error.
    pub(crate) fn text_body(&mut self, head: &XmlHead<'a>) -> XmlResult<TextAcc<'a>> {
        let mut text = TextAcc::Empty;
        if head.self_closing {
            return Ok(text);
        }
        let floor = self.depth;
        loop {
            match self.step()? {
                Step::Open(name) if head.kind != Kind::Component => {
                    self.open_plain(name, false)?;
                }
                Step::Close(_) if self.depth < floor => return Ok(text),
                Step::Text(t) => text.push(t),
                Step::CData(t) => text.push(Cow::Borrowed(t)),
                Step::Close(_) | Step::Comment(_) | Step::Pi(..) => {}
                Step::Open(_) => {
                    return Err(bad_value(format!(
                        "markup inside untyped value {:?}",
                        head.local
                    )))
                }
                Step::Eof => return Err(eof_inside()),
            }
        }
    }

    /// Read the items of the array `head` opened into `out`, through its
    /// end tag. Plain items go through [`Lexer::plain_items_into`]; any
    /// other item takes the event path, its text read as a leaf's. Items
    /// of an unannotated element are classified like the component
    /// children the tree reader keeps them as.
    pub(crate) fn array_body<T: TypedText>(
        &mut self,
        head: &XmlHead<'a>,
        out: &mut Vec<T>,
    ) -> XmlResult<()> {
        if head.self_closing {
            return Ok(());
        }
        let typed = head.kind != Kind::Component;
        loop {
            if typed {
                if let Some(text) = self.lex.plain_items_into(out) {
                    return Err(bad_item::<T>(text));
                }
            }
            match self.step()? {
                Step::Close(_) => return Ok(()),
                Step::Open(name) => {
                    // An item of an annotated array reads like the
                    // array's own leaf: its attributes mean nothing.
                    let item = if typed {
                        let self_closing = self.open_plain(name, true)?;
                        XmlHead {
                            self_closing,
                            ..*head
                        }
                    } else {
                        let item = self.head(name, |_| {})?;
                        if item.kind != Kind::Component {
                            return Err(bad_item::<T>(name));
                        }
                        item
                    };
                    let text = self.text_body(&item)?;
                    self.in_item = false;
                    let t = text.as_str();
                    out.push(
                        T::parse_text(t)
                            .or_else(|| T::parse_text(t.trim()))
                            .ok_or_else(|| bad_item::<T>(t))?,
                    );
                }
                Step::Text(t) if !t.trim().is_empty() => return Err(stray_text(&t)),
                Step::CData(t) if !t.trim().is_empty() => return Err(stray_text(t)),
                Step::Text(_) | Step::CData(_) | Step::Comment(_) | Step::Pi(..) => {}
                Step::Eof => return Err(eof_inside()),
            }
        }
    }

    /// Skip the element `head` opened, through its end tag, checking
    /// everything in it as the tree reader would read it: typed values
    /// must parse, nested annotations must name known types.
    pub(crate) fn skip(&mut self, head: &XmlHead<'a>) -> XmlResult<()> {
        match head.kind {
            Kind::Leaf(TypeCode::Str) => self.text_body(head).map(drop),
            Kind::Leaf(code) => {
                let text = self.text_body(head)?;
                AtomicValue::parse_as(code, text.as_str()).map_err(|e| bad_value(e.to_string()))?;
                Ok(())
            }
            Kind::Array(code) => {
                let mut items = ArrayValue::empty_of(code).expect("array kinds are numeric");
                with_numeric!(ArrayValue, &mut items, v => self.array_body(head, v))
            }
            Kind::Component if head.self_closing => Ok(()),
            Kind::Component => loop {
                match self.step()? {
                    Step::Open(name) => {
                        let child = self.head(name, |_| {})?;
                        self.skip(&child)?;
                    }
                    Step::Close(_) => return Ok(()),
                    Step::Eof => return Err(eof_inside()),
                    _ => {}
                }
            },
        }
    }
}

fn bad_item<T: TypedText>(text: &str) -> XmlError {
    bad_value(format!("bad {} array item {text:?}", T::CODE.xsd_name()))
}

fn stray_text(text: &str) -> XmlError {
    bad_value(format!("unexpected text {text:?} inside array element"))
}

/// [`Markup::step`] reports the end of input inside an element as an
/// error, so a body reader never sees [`Step::Eof`].
fn eof_inside() -> XmlError {
    XmlError::UnexpectedEof {
        what: "input ended inside an element".into(),
    }
}

/// An element name as the emitter writes it.
pub(crate) trait TagName {
    fn write_to(&self, out: &mut String);
}

impl TagName for str {
    fn write_to(&self, out: &mut String) {
        out.push_str(self);
    }
}

impl TagName for QName {
    fn write_to(&self, out: &mut String) {
        self.write_lexical(out);
    }
}

/// The markup emitter both writers run on, appending to `out`.
pub(crate) struct Emitter<'o> {
    pub(crate) out: &'o mut String,
    pub(crate) opts: &'o XmlWriteOptions,
}

impl Emitter<'_> {
    /// `<name` and its namespace declarations, in order.
    pub(crate) fn open_tag<'d>(
        &mut self,
        name: &(impl TagName + ?Sized),
        decls: impl IntoIterator<Item = (Option<&'d str>, &'d str)>,
    ) {
        self.out.push('<');
        name.write_to(self.out);
        for (prefix, uri) in decls {
            self.out.push_str(" xmlns");
            if let Some(p) = prefix {
                self.out.push(':');
                self.out.push_str(p);
            }
            self.out.push_str("=\"");
            escape_attr(uri, self.out);
            self.out.push('"');
        }
    }

    /// One ordinary attribute.
    pub(crate) fn attr(&mut self, name: &QName, value: &AtomicValue) {
        self.out.push(' ');
        name.write_lexical(self.out);
        self.out.push_str("=\"");
        self.value(value, escape_attr);
        self.out.push('"');
    }

    /// The `xsi:type` or `bx:arrayType` annotation, when
    /// [`XmlWriteOptions::emit_type_info`] asks for it.
    pub(crate) fn annotate(&mut self, attr: &str, code: TypeCode) {
        if self.opts.emit_type_info {
            self.out.push(' ');
            self.out.push_str(attr);
            self.out.push_str("=\"");
            self.out.push_str(code.xsd_name());
            self.out.push('"');
        }
    }

    /// An atomic value's lexical form: numbers through the
    /// [`crate::num`] writers, strings through `escape`.
    pub(crate) fn value(&mut self, value: &AtomicValue, escape: fn(&str, &mut String)) {
        with_numeric!(AtomicValue, value, v => v.push_text(self.out),
            AtomicValue::Str(s) => escape(s, self.out),
            AtomicValue::Bool(b) => self.out.push_str(if *b { "true" } else { "false" }),
        )
    }

    /// One [`XmlWriteOptions::item_tag`] child per array item. The
    /// open/close tag pair per item is exactly the overhead Table 1
    /// quantifies, and this loop is the measured cost of the XML
    /// encoding.
    pub(crate) fn items<T: TypedText>(&mut self, values: &[T]) {
        let tag = self.opts.item_tag.as_str();
        for &v in values {
            self.out.push('<');
            self.out.push_str(tag);
            self.out.push('>');
            v.push_text(self.out);
            self.close_tag(tag);
        }
    }

    /// `</name>`.
    pub(crate) fn close_tag(&mut self, name: &(impl TagName + ?Sized)) {
        self.out.push_str("</");
        name.write_to(self.out);
        self.out.push('>');
    }
}
