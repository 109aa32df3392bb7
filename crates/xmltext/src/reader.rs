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
//! The parser is a *streaming* one: it pulls document events from the
//! XML core (`markup.rs`), which owns every well-formedness rule, and
//! constructs typed bXDM nodes directly — array items are parsed
//! straight from the borrowed item text into the packed `ArrayValue`,
//! and typed leaves straight into their `AtomicValue`, without ever
//! materializing the generic per-item element tree that a
//! build-then-recover design would allocate and immediately discard.
//! Combined with [`parse_into`]'s clear-and-refill storage reuse, a
//! steady-state decode of a same-shape message performs zero heap
//! allocations.

use bxdm::{ArrayValue, Attribute, AtomicValue, Content, Document, Element, NamespaceDecl, Node, QName};
use xbs::TypeCode;

use crate::error::{XmlError, XmlResult};
use crate::markup::{with_numeric, Attr, Kind, Markup, Step};

/// Parse a complete XML document.
pub fn parse(input: &str) -> XmlResult<Document> {
    let mut doc = Document::new();
    parse_into(input, &mut doc)?;
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
    let filled = fill_children(&mut Markup::new(input), &mut doc.children)?;
    doc.children.truncate(filled);
    Ok(())
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

/// Take the next refill slot out of a recycled child list, growing it
/// with a blank placeholder (allocation-free, immediately overwritten)
/// when the new shape is larger.
fn next_slot<'v>(children: &'v mut Vec<Node>, filled: &mut usize) -> &'v mut Node {
    if *filled == children.len() {
        children.push(Node::Text(String::new()));
    }
    *filled += 1;
    &mut children[*filled - 1]
}

/// Refill a component's (or the document's) child list from the
/// events up to its end; returns the number of slots filled.
fn fill_children(m: &mut Markup<'_>, children: &mut Vec<Node>) -> XmlResult<usize> {
    let mut filled = 0usize;
    let mut last_was_text = false;
    loop {
        let text = match m.step()? {
            Step::Close(_) | Step::Eof => return Ok(filled),
            Step::Open(name) => {
                let slot = next_slot(children, &mut filled);
                fill_element(m, name, slot)?;
                last_was_text = false;
                continue;
            }
            // Whitespace-only text is dropped (pretty-printing).
            Step::Text(text) if text.trim().is_empty() => continue,
            Step::Text(text) => text,
            Step::CData(text) => text.into(),
            Step::Comment(c) => {
                match next_slot(children, &mut filled) {
                    Node::Comment(slot) => set_string(slot, c),
                    other => *other = Node::Comment(c.to_owned()),
                }
                last_was_text = false;
                continue;
            }
            Step::Pi(target, data) => {
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
                continue;
            }
        };
        // Character data merges with an adjacent text node (CDATA
        // next to character data).
        match children[..filled].last_mut() {
            Some(Node::Text(prev)) if last_was_text => prev.push_str(&text),
            _ => match next_slot(children, &mut filled) {
                Node::Text(slot) => set_string(slot, &text),
                other => *other = Node::Text(text.into_owned()),
            },
        }
        last_was_text = true;
    }
}

/// Fill one element into `slot`: tag name just read, attributes and
/// body still pending.
fn fill_element<'a>(m: &mut Markup<'a>, name: &'a str, slot: &mut Node) -> XmlResult<()> {
    if !matches!(slot, Node::Element(_)) {
        *slot = Node::Element(Element::component(""));
    }
    let Node::Element(el) = slot else {
        unreachable!("just assigned")
    };
    set_qname_lexical(&mut el.name, name);

    // Namespace declarations and ordinary attributes refill their
    // recycled slots; the core consumes the type annotation.
    let (mut ns_filled, mut attr_filled) = (0usize, 0usize);
    let (namespaces, attributes) = (&mut el.namespaces, &mut el.attributes);
    let head = m.head(name, |attr| match attr {
        Attr::Ns(prefix, uri) => {
            match namespaces.get_mut(ns_filled) {
                Some(decl) => {
                    match (prefix, &mut decl.prefix) {
                        (Some(p), Some(slot)) => set_string(slot, p),
                        (Some(p), none) => *none = Some(p.to_owned()),
                        (None, some) => *some = None,
                    }
                    set_string(&mut decl.uri, &uri);
                }
                None => namespaces.push(NamespaceDecl {
                    prefix: prefix.map(str::to_owned),
                    uri: uri.into_owned(),
                }),
            }
            ns_filled += 1;
        }
        Attr::Plain(raw, value, at) => {
            match attributes.get_mut(attr_filled) {
                Some(attr) if at == attr_filled => {
                    set_qname_lexical(&mut attr.name, raw);
                    match &mut attr.value {
                        AtomicValue::Str(s) => set_string(s, &value),
                        other => *other = AtomicValue::Str(value.into_owned()),
                    }
                }
                _ => attributes.insert(
                    at,
                    Attribute {
                        name: QName::parse(raw),
                        value: AtomicValue::Str(value.into_owned()),
                    },
                ),
            }
            attr_filled += 1;
        }
    })?;
    el.namespaces.truncate(ns_filled);
    el.attributes.truncate(attr_filled);

    match head.kind {
        Kind::Leaf(code) => {
            let text = m.text_body(&head)?;
            fill_leaf_value(code, text.as_str(), &mut el.content)?;
        }
        Kind::Array(code) => {
            // Reuse the payload `Vec` when it already holds `code`'s
            // type (cleared, capacity kept).
            match &mut el.content {
                Content::Array(array) if array.type_code() == code => {
                    with_numeric!(ArrayValue, array, v => v.clear())
                }
                other => {
                    let empty = ArrayValue::empty_of(code);
                    *other = Content::Array(empty.expect("array kinds are numeric"));
                }
            }
            let Content::Array(array) = &mut el.content else {
                unreachable!("just assigned")
            };
            with_numeric!(ArrayValue, array, v => m.array_body(&head, v))?;
        }
        Kind::Component => {
            if !matches!(el.content, Content::Children(_)) {
                el.content = Content::Children(Vec::new());
            }
            let Content::Children(children) = &mut el.content else {
                unreachable!("just assigned")
            };
            let filled = if head.self_closing {
                0
            } else {
                fill_children(m, children)?
            };
            children.truncate(filled);
        }
    }
    Ok(())
}

/// Parse a typed leaf's lexical content into its content slot, reusing
/// an existing string value's storage.
fn fill_leaf_value(code: TypeCode, text: &str, content: &mut Content) -> XmlResult<()> {
    if let (TypeCode::Str, Content::Leaf(AtomicValue::Str(slot))) = (code, &mut *content) {
        // Strings keep their full (untrimmed) lexical form.
        set_string(slot, text);
        return Ok(());
    }
    let value = AtomicValue::parse_as(code, text)
        .map_err(|e| XmlError::BadTypedValue { what: e.to_string() })?;
    *content = Content::Leaf(value);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::markup::MAX_DEPTH;
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
        let nest = |n: usize| format!("{}x{}", "<d>".repeat(n), "</d>".repeat(n));
        assert!(matches!(
            parse(&nest(MAX_DEPTH + 1)),
            Err(XmlError::Structure { .. })
        ));
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
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
