//! Textual XML 1.0 → bXDM.
//!
//! The reader rebuilds the *typed* tree: an element carrying `xsi:type`
//! becomes a LeafElement with a machine-typed value, and an element
//! carrying `bx:arrayType` becomes an ArrayElement with its items parsed
//! out of the per-item children. This is the schema-less typed recovery
//! the paper requires for transcodability (§4.2: without type information
//! in the serialization "we are not able to create the typed LeafElement
//! in the bXDM model").
//!
//! The parser is a *streaming* one: it pulls incremental events from the
//! lexer and constructs typed bXDM nodes directly — array items are
//! parsed straight from the borrowed item text into the packed
//! `ArrayValue`, and typed leaves straight into their `AtomicValue`,
//! without ever materializing the generic per-item element tree that a
//! build-then-recover design would allocate and immediately discard.
//! Combined with [`parse_into`]'s clear-and-refill storage reuse, a
//! steady-state decode of a same-shape message performs zero heap
//! allocations.

use std::borrow::Cow;

use bxdm::{ArrayValue, Attribute, AtomicValue, Content, Document, Element, NamespaceDecl, Node, QName};
use xbs::TypeCode;

use crate::error::{XmlError, XmlResult};
use crate::field::TypedText;
use crate::lexer::{AttrEvent, Event, Lexer};

/// Parsing options.
#[derive(Debug, Clone)]
pub struct XmlReadOptions {
    /// Drop text nodes that consist entirely of whitespace (pretty-printed
    /// input). Leaf/array recovery is unaffected.
    pub trim_whitespace_text: bool,
    /// Recognize `xsi:type` and `bx:arrayType` and rebuild typed nodes.
    /// When off, everything parses as component elements with text.
    pub typed_recovery: bool,
    /// Maximum element nesting depth accepted. Guards the recursive
    /// parser against stack exhaustion on adversarial input.
    pub max_depth: usize,
}

impl Default for XmlReadOptions {
    fn default() -> XmlReadOptions {
        XmlReadOptions {
            trim_whitespace_text: true,
            typed_recovery: true,
            max_depth: 512,
        }
    }
}

/// Parse a complete XML document with default options.
pub fn parse(input: &str) -> XmlResult<Document> {
    parse_with(input, &XmlReadOptions::default())
}

/// Parse a complete XML document.
pub fn parse_with(input: &str, opts: &XmlReadOptions) -> XmlResult<Document> {
    let mut doc = Document::new();
    parse_into_with(input, &mut doc, opts)?;
    Ok(doc)
}

/// Parse a complete XML document *into* `doc`, reusing its storage.
///
/// Where [`parse`] builds every node, string, and array from scratch,
/// `parse_into` walks the existing tree in lockstep with the event
/// stream and refills it: node slots are overwritten in place, `String`
/// and `Vec` capacity (names, namespace tables, attribute lists, child
/// lists, array payloads) survives across messages. When the incoming
/// message has the same shape as the previous one — the steady state of
/// a request/response service — the refill performs zero heap
/// allocations. Where shapes diverge, the parser falls back to fresh
/// allocation for the divergent subtree only.
///
/// On error the contents of `doc` are unspecified (but memory-safe);
/// callers must treat the document as garbage until the next successful
/// parse.
pub fn parse_into(input: &str, doc: &mut Document) -> XmlResult<()> {
    parse_into_with(input, doc, &XmlReadOptions::default())
}

/// [`parse_into`] with explicit options.
pub fn parse_into_with(input: &str, doc: &mut Document, opts: &XmlReadOptions) -> XmlResult<()> {
    let mut reader = Reader {
        lexer: Lexer::new(input),
        opts,
    };
    reader.fill_document(doc)
}

struct Reader<'a, 'o> {
    lexer: Lexer<'a>,
    opts: &'o XmlReadOptions,
}

/// A placeholder node for growing a recycled child list; allocation-free
/// (`String::new` does not allocate) and immediately overwritten.
fn blank_node() -> Node {
    Node::Text(String::new())
}

/// Overwrite a `String` slot, reusing the existing capacity.
fn set_string(slot: &mut String, value: &str) {
    slot.clear();
    slot.push_str(value);
}

/// Overwrite a `QName` slot from its lexical `prefix:local` form,
/// reusing the existing string storage (same split as [`QName::parse`]).
fn set_qname_lexical(name: &mut QName, raw: &str) {
    match raw.split_once(':') {
        Some((p, l)) => name.set(Some(p), l),
        None => name.set(None, raw),
    }
}

/// Run `$body` with `$v` bound to the packed `Vec` of whichever variant
/// `$array` holds: one match, then code monomorphized per element type.
macro_rules! with_items {
    ($array:expr, $v:ident => $body:expr) => {
        match $array {
            ArrayValue::I8($v) => $body,
            ArrayValue::U8($v) => $body,
            ArrayValue::I16($v) => $body,
            ArrayValue::U16($v) => $body,
            ArrayValue::I32($v) => $body,
            ArrayValue::U32($v) => $body,
            ArrayValue::I64($v) => $body,
            ArrayValue::U64($v) => $body,
            ArrayValue::F32($v) => $body,
            ArrayValue::F64($v) => $body,
        }
    };
}

/// Reuse `slot`'s payload `Vec` when it already holds arrays of `code`'s
/// type (clearing it but keeping capacity); otherwise replace it with an
/// empty array of that (numeric) type.
fn clear_array_for(code: TypeCode, slot: &mut ArrayValue) {
    if slot.type_code() == code {
        with_items!(slot, v => v.clear());
    } else {
        *slot = ArrayValue::empty_of(code).expect("numeric codes always have an array form");
    }
}

/// Take the next refill slot out of a recycled child list, growing it
/// with a blank placeholder when the new shape is larger.
fn next_slot<'v>(children: &'v mut Vec<Node>, filled: &mut usize) -> &'v mut Node {
    if *filled == children.len() {
        children.push(blank_node());
    }
    *filled += 1;
    &mut children[*filled - 1]
}

/// What an element's start tag told us about its content model.
enum Mode {
    Component,
    Leaf(TypeCode),
    Array(TypeCode),
}

/// Text content accumulated while streaming a leaf or array item:
/// borrowed from the input while it is a single run, promoted to an
/// owned buffer only for multi-part content (CDATA joins, nested
/// elements) — a shape the writer never emits.
enum TextAcc<'a> {
    Empty,
    Single(Cow<'a, str>),
    Joined(String),
}

impl<'a> TextAcc<'a> {
    fn push(&mut self, piece: Cow<'a, str>) {
        match self {
            TextAcc::Empty => *self = TextAcc::Single(piece),
            TextAcc::Single(first) => {
                let mut joined = String::with_capacity(first.len() + piece.len());
                joined.push_str(first);
                joined.push_str(&piece);
                *self = TextAcc::Joined(joined);
            }
            TextAcc::Joined(buf) => buf.push_str(&piece),
        }
    }

    /// Force the owned representation (needed before recursing into a
    /// nested element, whose text lands in the owned buffer).
    fn owned(&mut self) -> &mut String {
        match self {
            TextAcc::Joined(buf) => buf,
            TextAcc::Empty => {
                *self = TextAcc::Joined(String::new());
                match self {
                    TextAcc::Joined(buf) => buf,
                    _ => unreachable!("just assigned"),
                }
            }
            TextAcc::Single(first) => {
                *self = TextAcc::Joined(first.to_string());
                match self {
                    TextAcc::Joined(buf) => buf,
                    _ => unreachable!("just assigned"),
                }
            }
        }
    }

    fn as_str(&self) -> &str {
        match self {
            TextAcc::Empty => "",
            TextAcc::Single(s) => s,
            TextAcc::Joined(s) => s,
        }
    }
}

impl<'a> Reader<'a, '_> {
    fn fill_document(&mut self, doc: &mut Document) -> XmlResult<()> {
        let mut filled = 0usize;
        let mut saw_root = false;
        loop {
            match self.lexer.next_event()? {
                Event::Eof => break,
                Event::Decl => {
                    if saw_root {
                        return Err(XmlError::Structure {
                            what: "XML declaration not at document start".into(),
                        });
                    }
                }
                Event::StartTagOpen { name } => {
                    if saw_root {
                        return Err(XmlError::Structure {
                            what: "multiple root elements".into(),
                        });
                    }
                    let slot = next_slot(&mut doc.children, &mut filled);
                    self.fill_element(name, 0, slot)?;
                    saw_root = true;
                }
                Event::EndTag { name } => {
                    return Err(XmlError::Structure {
                        what: format!("close tag </{name}> with no open element"),
                    });
                }
                Event::Text(text) => {
                    if !text.trim().is_empty() {
                        return Err(XmlError::Structure {
                            what: "character data outside the root element".into(),
                        });
                    }
                }
                Event::CData(_) => {
                    return Err(XmlError::Structure {
                        what: "CDATA outside the root element".into(),
                    });
                }
                Event::Comment(c) => match next_slot(&mut doc.children, &mut filled) {
                    Node::Comment(slot) => set_string(slot, c),
                    other => *other = Node::Comment(c.to_owned()),
                },
                Event::Pi { target, data } => match next_slot(&mut doc.children, &mut filled) {
                    Node::Pi { target: t, data: d } => {
                        set_string(t, target);
                        set_string(d, data);
                    }
                    other => {
                        *other = Node::Pi {
                            target: target.to_owned(),
                            data: data.to_owned(),
                        }
                    }
                },
            }
        }
        doc.children.truncate(filled);
        if !saw_root {
            return Err(XmlError::Structure {
                what: "document has no root element".into(),
            });
        }
        Ok(())
    }

    /// Fill one element into `slot`: tag name just lexed, attributes and
    /// body still pending in the lexer.
    fn fill_element(&mut self, name: &'a str, depth: usize, slot: &mut Node) -> XmlResult<()> {
        if depth >= self.opts.max_depth {
            return Err(XmlError::Structure {
                what: format!("element nesting exceeds max_depth {}", self.opts.max_depth),
            });
        }
        let el = match slot {
            Node::Element(e) => e,
            other => {
                *other = Node::Element(Element::component(""));
                match other {
                    Node::Element(e) => e,
                    _ => unreachable!("just assigned"),
                }
            }
        };
        set_qname_lexical(&mut el.name, name);

        // Drain the attributes: namespace declarations and ordinary
        // attributes refill their recycled slots; the type annotations
        // (first xsi:type, first bx:arrayType) are consumed — they pick
        // the content model instead of becoming attributes. xsi:type
        // wins when both are present, in which case the arrayType
        // annotation reverts to an ordinary attribute at its original
        // position.
        let mut ns_filled = 0usize;
        let mut attr_filled = 0usize;
        let mut has_xsi_type_attr = false;
        let mut xsi_type: Option<Cow<'a, str>> = None;
        let mut array_type: Option<(Cow<'a, str>, usize)> = None;
        let self_closing = loop {
            match self.lexer.next_attr()? {
                AttrEvent::TagEnd { self_closing } => break self_closing,
                AttrEvent::Attr(raw, value) => {
                    if raw == "xmlns" || raw.starts_with("xmlns:") {
                        let prefix = raw.strip_prefix("xmlns:");
                        match el.namespaces.get_mut(ns_filled) {
                            Some(decl) => {
                                match (prefix, &mut decl.prefix) {
                                    (Some(p), Some(slot)) => set_string(slot, p),
                                    (Some(p), none) => *none = Some(p.to_owned()),
                                    (None, some) => *some = None,
                                }
                                set_string(&mut decl.uri, &value);
                            }
                            None => el.namespaces.push(NamespaceDecl {
                                prefix: prefix.map(str::to_owned),
                                uri: value.into_owned(),
                            }),
                        }
                        ns_filled += 1;
                        continue;
                    }
                    if raw == "xsi:type" {
                        has_xsi_type_attr = true;
                        if self.opts.typed_recovery && xsi_type.is_none() {
                            xsi_type = Some(value);
                            // A provisionally consumed arrayType loses to
                            // xsi:type: restore it as a plain attribute.
                            if let Some((v, index)) = array_type.take() {
                                el.attributes.insert(
                                    index,
                                    Attribute {
                                        name: QName::parse("bx:arrayType"),
                                        value: AtomicValue::Str(v.into_owned()),
                                    },
                                );
                                attr_filled += 1;
                            }
                            continue;
                        }
                    } else if raw == "bx:arrayType"
                        && self.opts.typed_recovery
                        && xsi_type.is_none()
                        && array_type.is_none()
                    {
                        array_type = Some((value, attr_filled));
                        continue;
                    }
                    match el.attributes.get_mut(attr_filled) {
                        Some(attr) => {
                            set_qname_lexical(&mut attr.name, raw);
                            match &mut attr.value {
                                AtomicValue::Str(s) => set_string(s, &value),
                                other => *other = AtomicValue::Str(value.into_owned()),
                            }
                        }
                        None => el.attributes.push(Attribute {
                            name: QName::parse(raw),
                            value: AtomicValue::Str(value.into_owned()),
                        }),
                    }
                    attr_filled += 1;
                }
            }
        };
        el.namespaces.truncate(ns_filled);
        el.attributes.truncate(attr_filled);

        let mode = match (&xsi_type, &array_type) {
            (Some(type_name), _) => {
                let code =
                    TypeCode::from_xsd_name(type_name).ok_or_else(|| XmlError::BadTypedValue {
                        what: format!("unknown xsi:type {type_name:?}"),
                    })?;
                Mode::Leaf(code)
            }
            (None, Some((type_name, _))) => {
                let code =
                    TypeCode::from_xsd_name(type_name).ok_or_else(|| XmlError::BadTypedValue {
                        what: format!("unknown bx:arrayType {type_name:?}"),
                    })?;
                if !matches!(code, TypeCode::Str | TypeCode::Bool) {
                    Mode::Array(code)
                } else {
                    return Err(XmlError::BadTypedValue {
                        what: format!("{type_name:?} is not a valid array element type"),
                    });
                }
            }
            (None, None) => Mode::Component,
        };

        match mode {
            Mode::Leaf(code) => {
                let mut text = TextAcc::Empty;
                if !self_closing {
                    self.stream_text_body(name, depth, &mut text)?;
                }
                self.fill_leaf_value(code, &text, &mut el.content)?;
            }
            Mode::Array(code) => {
                let array = match &mut el.content {
                    Content::Array(a) => a,
                    other => {
                        *other = Content::Array(ArrayValue::U8(Vec::new()));
                        match other {
                            Content::Array(a) => a,
                            _ => unreachable!("just assigned"),
                        }
                    }
                };
                clear_array_for(code, array);
                if !self_closing {
                    self.stream_array_body(name, depth, array)?;
                }
            }
            Mode::Component => {
                let children = match &mut el.content {
                    Content::Children(c) => c,
                    other => {
                        *other = Content::Children(Vec::new());
                        match other {
                            Content::Children(c) => c,
                            _ => unreachable!("just assigned"),
                        }
                    }
                };
                let filled = if self_closing {
                    0
                } else {
                    self.stream_component_body(name, depth, has_xsi_type_attr, children)?
                };
                children.truncate(filled);
            }
        }
        Ok(())
    }

    /// Stream a component element's body into its recycled child list;
    /// returns the number of slots filled.
    fn stream_component_body(
        &mut self,
        open_name: &'a str,
        depth: usize,
        has_xsi_type_attr: bool,
        children: &mut Vec<Node>,
    ) -> XmlResult<usize> {
        let mut filled = 0usize;
        let mut last_was_text = false;
        loop {
            let offset = self.lexer.position();
            match self.lexer.next_event()? {
                Event::EndTag { name } => {
                    self.check_close(open_name, name, offset)?;
                    return Ok(filled);
                }
                Event::StartTagOpen { name } => {
                    let slot = next_slot(children, &mut filled);
                    self.fill_element(name, depth + 1, slot)?;
                    last_was_text = false;
                }
                Event::Text(text) => {
                    // Whitespace-only text is dropped (pretty-printing),
                    // except inside an element that declares xsi:type — a
                    // typed string's lexical content is significant even
                    // when it is all spaces.
                    let keep = !self.opts.trim_whitespace_text
                        || !text.trim().is_empty()
                        || has_xsi_type_attr;
                    if keep {
                        self.push_text(children, &mut filled, &mut last_was_text, &text);
                    }
                }
                Event::CData(text) => {
                    self.push_text(children, &mut filled, &mut last_was_text, text);
                }
                Event::Comment(c) => {
                    match next_slot(children, &mut filled) {
                        Node::Comment(slot) => set_string(slot, c),
                        other => *other = Node::Comment(c.to_owned()),
                    }
                    last_was_text = false;
                }
                Event::Pi { target, data } => {
                    match next_slot(children, &mut filled) {
                        Node::Pi { target: t, data: d } => {
                            set_string(t, target);
                            set_string(d, data);
                        }
                        other => {
                            *other = Node::Pi {
                                target: target.to_owned(),
                                data: data.to_owned(),
                            }
                        }
                    }
                    last_was_text = false;
                }
                Event::Decl => {
                    return Err(XmlError::Structure {
                        what: "XML declaration not at document start".into(),
                    });
                }
                Event::Eof => return Err(self.never_closed(open_name)),
            }
        }
    }

    /// Append character data, merging with an adjacent text node (CDATA
    /// next to character data).
    fn push_text(
        &mut self,
        children: &mut Vec<Node>,
        filled: &mut usize,
        last_was_text: &mut bool,
        text: &str,
    ) {
        if *last_was_text {
            if let Some(Node::Text(prev)) = children.get_mut(*filled - 1) {
                prev.push_str(text);
                return;
            }
        }
        match next_slot(children, filled) {
            Node::Text(slot) => set_string(slot, text),
            other => *other = Node::Text(text.to_owned()),
        }
        *last_was_text = true;
    }

    /// Stream a typed array element's body, parsing each `<item>` child's
    /// text straight into the packed array.
    fn stream_array_body(
        &mut self,
        open_name: &'a str,
        depth: usize,
        array: &mut ArrayValue,
    ) -> XmlResult<()> {
        loop {
            // Plain items go through the item loop the typed reader
            // shares, with the lenient `push_lexical` for spellings the
            // kernel declines. Anything the scanner declines takes one
            // step of the event path below, which stays the reference.
            if let Some(text) = with_items!(&mut *array, v => self.lexer.plain_items_into(v)) {
                push_lexical(array, text)?;
                continue;
            }
            let offset = self.lexer.position();
            match self.lexer.next_event()? {
                Event::EndTag { name } => {
                    return self.check_close(open_name, name, offset);
                }
                Event::StartTagOpen { name } => {
                    // An item element: its attributes are ignored, its
                    // text is the lexical item value.
                    let self_closing = self.skip_attrs()?;
                    let mut text = TextAcc::Empty;
                    if !self_closing {
                        self.stream_text_body(name, depth, &mut text)?;
                    }
                    let t = text.as_str();
                    if !with_items!(&mut *array, v => push_parsed(v, t)) {
                        push_lexical(array, t)?;
                    }
                }
                Event::Text(text) => {
                    if !text.trim().is_empty() {
                        return Err(XmlError::BadTypedValue {
                            what: format!("unexpected text {text:?} inside array element"),
                        });
                    }
                }
                Event::CData(text) => {
                    if !text.trim().is_empty() {
                        return Err(XmlError::BadTypedValue {
                            what: format!("unexpected text {text:?} inside array element"),
                        });
                    }
                }
                Event::Comment(_) | Event::Pi { .. } => {}
                Event::Decl => {
                    return Err(XmlError::Structure {
                        what: "XML declaration not at document start".into(),
                    });
                }
                Event::Eof => return Err(self.never_closed(open_name)),
            }
        }
    }

    /// Stream an element body collecting only its character data (XPath
    /// `string()` semantics: nested elements contribute their text,
    /// comments and processing instructions are skipped). Used for typed
    /// leaves and array items, whose markup structure is discarded.
    fn stream_text_body(
        &mut self,
        open_name: &'a str,
        depth: usize,
        text: &mut TextAcc<'a>,
    ) -> XmlResult<()> {
        if depth >= self.opts.max_depth {
            return Err(XmlError::Structure {
                what: format!("element nesting exceeds max_depth {}", self.opts.max_depth),
            });
        }
        loop {
            let offset = self.lexer.position();
            match self.lexer.next_event()? {
                Event::EndTag { name } => {
                    return self.check_close(open_name, name, offset);
                }
                Event::StartTagOpen { name } => {
                    let self_closing = self.skip_attrs()?;
                    if !self_closing {
                        // Nested markup inside a typed value: collect its
                        // text into the owned buffer.
                        let mut inner = TextAcc::Joined(std::mem::take(text.owned()));
                        let result = self.stream_text_body(name, depth + 1, &mut inner);
                        *text = inner;
                        result?;
                    }
                }
                Event::Text(t) => text.push(t),
                Event::CData(t) => text.push(Cow::Borrowed(t)),
                Event::Comment(_) | Event::Pi { .. } => {}
                Event::Decl => {
                    return Err(XmlError::Structure {
                        what: "XML declaration not at document start".into(),
                    });
                }
                Event::Eof => return Err(self.never_closed(open_name)),
            }
        }
    }

    /// Drain and discard a start tag's attributes; returns `self_closing`.
    fn skip_attrs(&mut self) -> XmlResult<bool> {
        loop {
            match self.lexer.next_attr()? {
                AttrEvent::Attr(..) => {}
                AttrEvent::TagEnd { self_closing } => return Ok(self_closing),
            }
        }
    }

    /// Parse a typed leaf's lexical content into its content slot,
    /// reusing an existing string value's storage.
    fn fill_leaf_value(
        &mut self,
        code: TypeCode,
        text: &TextAcc<'_>,
        content: &mut Content,
    ) -> XmlResult<()> {
        if code == TypeCode::Str {
            // Strings keep their full (untrimmed) lexical form; refill
            // the existing String in place.
            if let Content::Leaf(AtomicValue::Str(slot)) = content {
                set_string(slot, text.as_str());
                return Ok(());
            }
        }
        let value = AtomicValue::parse_as(code, text.as_str())
            .map_err(|e| XmlError::BadTypedValue { what: e.to_string() })?;
        *content = Content::Leaf(value);
        Ok(())
    }

    fn check_close(&self, expected: &str, found: &str, offset: usize) -> XmlResult<()> {
        if expected == found {
            Ok(())
        } else {
            Err(XmlError::MismatchedTag {
                offset,
                expected: expected.to_owned(),
                found: found.to_owned(),
            })
        }
    }

    fn never_closed(&self, name: &str) -> XmlError {
        XmlError::UnexpectedEof {
            what: format!("element <{name}> never closed"),
        }
    }
}

/// Append an item the [`TypedText`] kernel parses; `false` if it declines.
fn push_parsed<T: TypedText>(out: &mut Vec<T>, text: &str) -> bool {
    T::parse_text(text.trim()).map(|v| out.push(v)).is_some()
}

/// Append an item the kernels declined (overflow, unusual spellings such
/// as a `+` sign on an unsigned value) through
/// [`ArrayValue::push_lexical`], which also produces the canonical
/// [`XmlError::BadTypedValue`] for genuinely bad items.
fn push_lexical(array: &mut ArrayValue, text: &str) -> XmlResult<()> {
    array
        .push_lexical(text)
        .map_err(|e| XmlError::BadTypedValue { what: e.to_string() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::{to_string, to_string_with, XmlWriteOptions};

    #[test]
    fn simple_tree() {
        let doc = parse("<a><b k=\"1\">hi</b><c/></a>").unwrap();
        let root = doc.root().unwrap();
        assert_eq!(root.name.local(), "a");
        let b = root.find_child("b").unwrap();
        assert_eq!(b.attribute("k").unwrap().value.as_str(), Some("1"));
        assert_eq!(b.text_content(), "hi");
        assert!(root.find_child("c").unwrap().children().is_empty());
    }

    #[test]
    fn namespace_declarations_split_out() {
        let doc =
            parse(r#"<s:e xmlns:s="http://s" xmlns="http://d" a="1"/>"#).unwrap();
        let root = doc.root().unwrap();
        assert_eq!(root.namespaces.len(), 2);
        assert_eq!(root.namespaces[0].prefix.as_deref(), Some("s"));
        assert_eq!(root.namespaces[1].prefix, None);
        assert_eq!(root.attributes.len(), 1);
    }

    #[test]
    fn leaf_recovery() {
        let doc = parse(r#"<n xsi:type="xsd:double">2.5</n>"#).unwrap();
        let root = doc.root().unwrap();
        assert_eq!(root.leaf_value(), Some(&AtomicValue::F64(2.5)));
        // The xsi:type attribute is consumed by recovery.
        assert!(root.attributes.is_empty());
    }

    #[test]
    fn array_recovery() {
        let doc = parse(
            r#"<v bx:arrayType="xsd:int"><item>1</item><item>-2</item><item>3</item></v>"#,
        )
        .unwrap();
        let root = doc.root().unwrap();
        assert_eq!(root.as_i32_array(), Some(&[1, -2, 3][..]));
    }

    #[test]
    fn array_recovery_tolerates_whitespace_and_comments() {
        let doc = parse(
            "<v bx:arrayType=\"xsd:int\">\n  <i>1</i><!-- x -->\n  <i>2</i>\n</v>",
        )
        .unwrap();
        assert_eq!(doc.root().unwrap().as_i32_array(), Some(&[1, 2][..]));
    }

    #[test]
    fn typed_recovery_can_be_disabled() {
        let opts = XmlReadOptions {
            typed_recovery: false,
            ..Default::default()
        };
        let doc = parse_with(r#"<n xsi:type="xsd:int">5</n>"#, &opts).unwrap();
        let root = doc.root().unwrap();
        assert!(root.is_component());
        assert!(root.attribute("xsi:type").is_some());
    }

    #[test]
    fn bad_typed_values_error() {
        assert!(matches!(
            parse(r#"<n xsi:type="xsd:int">oops</n>"#),
            Err(XmlError::BadTypedValue { .. })
        ));
        assert!(matches!(
            parse(r#"<n xsi:type="xsd:unknown">1</n>"#),
            Err(XmlError::BadTypedValue { .. })
        ));
        assert!(matches!(
            parse(r#"<v bx:arrayType="xsd:int">loose text</v>"#),
            Err(XmlError::BadTypedValue { .. })
        ));
    }

    #[test]
    fn leaf_beats_array_annotation() {
        // When both annotations appear, xsi:type wins and bx:arrayType
        // reverts to an ordinary attribute — in either attribute order.
        for xml in [
            r#"<n bx:arrayType="xsd:int" xsi:type="xsd:int">5</n>"#,
            r#"<n xsi:type="xsd:int" bx:arrayType="xsd:int">5</n>"#,
        ] {
            let doc = parse(xml).unwrap();
            let root = doc.root().unwrap();
            assert_eq!(root.leaf_value(), Some(&AtomicValue::I32(5)), "{xml}");
            assert_eq!(
                root.attribute("bx:arrayType").unwrap().value.as_str(),
                Some("xsd:int"),
                "{xml}"
            );
        }
    }

    #[test]
    fn structure_errors() {
        assert!(parse("").is_err());
        assert!(parse("just text").is_err());
        assert!(parse("<a></b>").is_err());
        assert!(parse("<a>").is_err());
        assert!(parse("<a/><b/>").is_err());
        assert!(parse("</a>").is_err());
    }

    #[test]
    fn deep_nesting_rejected() {
        let opts = XmlReadOptions {
            max_depth: 8,
            ..Default::default()
        };
        let deep = format!("{}x{}", "<d>".repeat(16), "</d>".repeat(16));
        assert!(matches!(
            parse_with(&deep, &opts),
            Err(XmlError::Structure { .. })
        ));
        let shallow = format!("{}x{}", "<d>".repeat(4), "</d>".repeat(4));
        assert!(parse_with(&shallow, &opts).is_ok());
    }

    #[test]
    fn mismatched_tag_reports_names() {
        match parse("<outer><inner></outer></inner>") {
            Err(XmlError::MismatchedTag { expected, found, .. }) => {
                assert_eq!(expected, "inner");
                assert_eq!(found, "outer");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn cdata_merges_with_text() {
        let doc = parse("<a>one <![CDATA[<two>]]> three</a>").unwrap();
        assert_eq!(doc.root().unwrap().text_content(), "one <two> three");
    }

    #[test]
    fn whitespace_trimming_default() {
        let doc = parse("<a>\n  <b/>\n</a>").unwrap();
        assert_eq!(doc.root().unwrap().children().len(), 1);
        let opts = XmlReadOptions {
            trim_whitespace_text: false,
            ..Default::default()
        };
        let doc = parse_with("<a>\n  <b/>\n</a>", &opts).unwrap();
        assert_eq!(doc.root().unwrap().children().len(), 3);
    }

    #[test]
    fn full_roundtrip_typed_document() {
        let original = Document::with_root(
            Element::component("d:data")
                .with_namespace("d", "http://example.org/d")
                .with_attr("run", "42")
                .with_child(Element::leaf("d:count", AtomicValue::I32(2)))
                .with_child(Element::leaf("d:name", AtomicValue::Str("test".into())))
                .with_child(Element::array(
                    "d:values",
                    ArrayValue::F64(vec![1.0, -2.5, 3.25e-8]),
                ))
                .with_child(Element::array("d:index", ArrayValue::I32(vec![7, 8])))
                .with_comment("tail"),
        );
        let xml = to_string(&original).unwrap();
        let back = parse(&xml).unwrap();
        assert_eq!(back, original);
    }

    #[test]
    fn roundtrip_without_type_info_degrades_gracefully() {
        let original = Document::with_root(Element::array(
            "v",
            ArrayValue::I32(vec![1, 2]),
        ));
        let opts = XmlWriteOptions {
            emit_type_info: false,
            ..Default::default()
        };
        let xml = to_string_with(&original, &opts).unwrap();
        let back = parse(&xml).unwrap();
        // No arrayType attribute, so items come back as plain elements.
        let root = back.root().unwrap();
        assert!(root.is_component());
        assert_eq!(root.child_elements().count(), 2);
    }

    #[test]
    fn top_level_comments_and_pis_preserved() {
        let doc = parse("<?xml version=\"1.0\"?><!--pre--><r/><?post done?>").unwrap();
        assert_eq!(doc.children.len(), 3);
        assert!(matches!(&doc.children[0], Node::Comment(c) if c == "pre"));
        assert!(matches!(&doc.children[2], Node::Pi { target, .. } if target == "post"));
    }

    /// A corpus of XML documents spanning every content kind the reader
    /// distinguishes: typed leaves and arrays, plain components, mixed
    /// content, namespaces, comments and PIs, CDATA.
    fn corpus() -> Vec<String> {
        let mut docs: Vec<String> = Vec::new();
        for doc in [
            Document::with_root(
                Element::component("d:data")
                    .with_namespace("d", "http://example.org/d")
                    .with_attr("run", "42")
                    .with_child(Element::leaf("d:count", AtomicValue::I32(2)))
                    .with_child(Element::leaf("d:name", AtomicValue::Str("test".into())))
                    .with_child(Element::array(
                        "d:values",
                        ArrayValue::F64(vec![1.0, -2.5, 3.25e-8]),
                    ))
                    .with_child(Element::array("d:index", ArrayValue::I32(vec![7, 8])))
                    .with_comment("tail"),
            ),
            Document::with_root(Element::leaf("b", AtomicValue::Bool(true))),
            Document::with_root(Element::array("v", ArrayValue::U8(vec![1, 255]))),
            Document::with_root(Element::array("v", ArrayValue::F32(vec![0.5, -1.5]))),
            Document::with_root(Element::array("e", ArrayValue::I64(vec![]))),
            Document::with_root(
                Element::component("a:r")
                    .with_namespace("a", "http://a")
                    .with_child(
                        Element::component("b:mid")
                            .with_namespace("b", "http://b")
                            .with_child(Element::leaf("a:deep", AtomicValue::Bool(false))),
                    ),
            ),
        ] {
            docs.push(to_string(&doc).unwrap());
        }
        // Hand-written shapes the writer does not emit.
        docs.push("<a>one <![CDATA[<two>]]> three<!--c--><?p d?></a>".into());
        docs.push("<?xml version=\"1.0\"?><!--pre--><r k=\"v\"><s/> tail</r><?post done?>".into());
        docs.push("<v bx:arrayType=\"xsd:int\">\n  <i>1</i><!-- x -->\n  <i>2</i>\n</v>".into());
        docs.push(r#"<n xsi:type="xsd:string">  spaced  </n>"#.into());
        docs
    }

    /// `parse_into` must be observationally identical to `parse`, both on
    /// a fresh document and on one still holding any *other* corpus
    /// document's tree (the dirty-slot case where shapes diverge).
    #[test]
    fn parse_into_matches_parse_on_corpus() {
        let corpus = corpus();
        let mut recycled = Document::new();
        for (i, xml) in corpus.iter().enumerate() {
            let fresh = parse(xml).unwrap();
            let mut target = Document::new();
            parse_into(xml, &mut target).unwrap();
            assert_eq!(target, fresh, "fresh-target mismatch on corpus[{i}]");
            parse_into(xml, &mut recycled).unwrap();
            assert_eq!(recycled, fresh, "dirty-target mismatch on corpus[{i}]");
        }
    }

    /// Same-shape refill must not reallocate a large array payload: the
    /// array Vec's address is stable across messages.
    #[test]
    fn parse_into_reuses_array_storage() {
        let doc = Document::with_root(Element::array(
            "v",
            ArrayValue::F64((0..512).map(|i| i as f64).collect()),
        ));
        let xml = to_string(&doc).unwrap();
        let mut target = Document::new();
        parse_into(&xml, &mut target).unwrap();
        let ptr = match target.root().unwrap().array_value().unwrap() {
            ArrayValue::F64(v) => v.as_ptr(),
            other => panic!("expected F64 array, got {other:?}"),
        };
        parse_into(&xml, &mut target).unwrap();
        assert_eq!(target, doc);
        let ptr2 = match target.root().unwrap().array_value().unwrap() {
            ArrayValue::F64(v) => v.as_ptr(),
            other => panic!("expected F64 array, got {other:?}"),
        };
        assert_eq!(ptr, ptr2, "same-shape refill must reuse the array buffer");
    }

    /// A failed refill leaves the document in an unspecified-but-valid
    /// state and the next successful parse repairs it completely.
    #[test]
    fn parse_into_recovers_after_error() {
        let doc = Document::with_root(
            Element::component("r")
                .with_child(Element::leaf("n", AtomicValue::I32(7)))
                .with_child(Element::array("v", ArrayValue::F64(vec![1.5, -2.0]))),
        );
        let xml = to_string(&doc).unwrap();
        let mut target = Document::new();
        parse_into(&xml, &mut target).unwrap();
        assert!(parse_into(&xml[..xml.len() / 2], &mut target).is_err());
        parse_into(&xml, &mut target).unwrap();
        assert_eq!(target, doc);
    }
}
