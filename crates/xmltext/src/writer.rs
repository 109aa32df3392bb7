//! bXDM → textual XML 1.0.
//!
//! The writer is a [`bxdm::Visitor`]: the tree walk is shared with the
//! BXSA encoder (paper §5.2), only the per-event output differs. The
//! output itself goes through the emitter [`crate::XmlFieldWriter`] uses
//! too, so both writers spell every construct the same way.

use std::convert::Infallible;

use bxdm::{walk_document, walk_element, ArrayValue, Content, Document, Element, Visitor};

use crate::escape::escape_text;
use crate::markup::{with_numeric, Emitter};

/// Serialization options.
#[derive(Debug, Clone)]
pub struct XmlWriteOptions {
    /// Emit the `<?xml version="1.0" encoding="UTF-8"?>` declaration.
    pub declaration: bool,
    /// Emit `xsi:type` on leaf elements and `bx:arrayType` on array
    /// elements so a schema-less reader can rebuild the typed tree (the
    /// paper's §4.2 requirement). Turn off to measure the bare
    /// "namespace free, shortest tags" encoding of Table 1.
    pub emit_type_info: bool,
    /// Element name used for the per-item children of an array element.
    /// Table 1 uses the shortest possible (`"i"`); the default is `"item"`.
    pub item_tag: String,
}

impl Default for XmlWriteOptions {
    fn default() -> XmlWriteOptions {
        XmlWriteOptions {
            declaration: false,
            emit_type_info: true,
            item_tag: "item".to_owned(),
        }
    }
}

/// Serialize a document with default options.
pub fn to_string(doc: &Document) -> Result<String, Infallible> {
    to_string_with(doc, &XmlWriteOptions::default())
}

/// Serialize a document with explicit options.
pub fn to_string_with(doc: &Document, opts: &XmlWriteOptions) -> Result<String, Infallible> {
    let mut out = String::with_capacity(256);
    write_into(doc, opts, &mut out)?;
    Ok(out)
}

/// Serialize a document into a caller-provided buffer.
///
/// The buffer is cleared first but keeps its capacity, so cycling one
/// `String` through repeated calls reaches a steady state with no heap
/// allocation at all (the per-value numeric formatting goes through the
/// [`crate::num`] writers, which write in place).
pub fn write_into(
    doc: &Document,
    opts: &XmlWriteOptions,
    out: &mut String,
) -> Result<(), Infallible> {
    out.clear();
    if opts.declaration {
        out.push_str("<?xml version=\"1.0\" encoding=\"UTF-8\"?>");
    }
    walk_document(doc, &mut XmlWriter(Emitter { out, opts }))
}

/// Serialize a single element into a caller-provided buffer (cleared
/// first, capacity kept) — the streaming path's per-part encoder:
/// cycling one `String` through a stream of similarly-sized parts
/// serializes each with no heap allocation.
pub fn write_element_into(element: &Element, opts: &XmlWriteOptions, out: &mut String) {
    out.clear();
    let Ok(()) = walk_element(element, &mut XmlWriter(Emitter { out, opts }));
}

struct XmlWriter<'o>(Emitter<'o>);

impl Visitor for XmlWriter<'_> {
    type Error = Infallible;

    fn visit_element_start(&mut self, e: &Element) -> Result<(), Infallible> {
        let w = &mut self.0;
        w.open_tag(&e.name, e.namespaces.iter().map(|ns| (ns.prefix.as_deref(), ns.uri.as_str())));
        for attr in &e.attributes {
            w.attr(&attr.name, &attr.value);
        }
        match &e.content {
            // Children are emitted by the shared walk; the close tag
            // happens in visit_element_end.
            Content::Children(children) if children.is_empty() => w.out.push_str("/>"),
            Content::Children(_) => w.out.push('>'),
            Content::Leaf(value) => {
                w.annotate("xsi:type", value.type_code());
                w.out.push('>');
                w.value(value, escape_text);
            }
            Content::Array(array) => {
                w.annotate("bx:arrayType", array.type_code());
                w.out.push('>');
                with_numeric!(ArrayValue, array, v => w.items(v));
            }
        }
        Ok(())
    }

    fn visit_element_end(&mut self, e: &Element) -> Result<(), Infallible> {
        match &e.content {
            Content::Children(children) if children.is_empty() => {} // self-closed
            _ => self.0.close_tag(&e.name),
        }
        Ok(())
    }

    fn visit_text(&mut self, text: &str) -> Result<(), Infallible> {
        escape_text(text, self.0.out);
        Ok(())
    }

    fn visit_comment(&mut self, comment: &str) -> Result<(), Infallible> {
        self.0.out.push_str("<!--");
        self.0.out.push_str(comment);
        self.0.out.push_str("-->");
        Ok(())
    }

    fn visit_pi(&mut self, target: &str, data: &str) -> Result<(), Infallible> {
        let out = &mut *self.0.out;
        out.push_str("<?");
        out.push_str(target);
        if !data.is_empty() {
            out.push(' ');
            out.push_str(data);
        }
        out.push_str("?>");
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bxdm::{AtomicValue, Node};

    fn doc(root: Element) -> Document {
        Document::with_root(root)
    }

    #[test]
    fn component_roundtrip_markup() {
        let d = doc(Element::component("a")
            .with_attr("k", "v<&>")
            .with_child(Element::component("b"))
            .with_text("x & y"));
        assert_eq!(
            to_string(&d).unwrap(),
            r#"<a k="v&lt;&amp;&gt;"><b/>x &amp; y</a>"#
        );
    }

    #[test]
    fn leaf_with_type_info() {
        let d = doc(Element::leaf("n", AtomicValue::I32(-5)));
        assert_eq!(
            to_string(&d).unwrap(),
            r#"<n xsi:type="xsd:int">-5</n>"#
        );
    }

    #[test]
    fn leaf_without_type_info() {
        let d = doc(Element::leaf("n", AtomicValue::I32(-5)));
        let opts = XmlWriteOptions {
            emit_type_info: false,
            ..Default::default()
        };
        assert_eq!(to_string_with(&d, &opts).unwrap(), "<n>-5</n>");
    }

    #[test]
    fn array_items_and_type() {
        let d = doc(Element::array("v", ArrayValue::F64(vec![1.5, -2.0])));
        assert_eq!(
            to_string(&d).unwrap(),
            r#"<v bx:arrayType="xsd:double"><item>1.5</item><item>-2</item></v>"#
        );
    }

    #[test]
    fn array_short_item_tag() {
        let d = doc(Element::array("v", ArrayValue::I32(vec![1, 2, 3])));
        let opts = XmlWriteOptions {
            emit_type_info: false,
            item_tag: "i".to_owned(),
            ..Default::default()
        };
        assert_eq!(
            to_string_with(&d, &opts).unwrap(),
            "<v><i>1</i><i>2</i><i>3</i></v>"
        );
    }

    #[test]
    fn namespaces_emitted() {
        let d = doc(Element::component("s:env")
            .with_namespace("s", "http://example.org/s")
            .with_default_namespace("http://example.org/d"));
        assert_eq!(
            to_string(&d).unwrap(),
            r#"<s:env xmlns:s="http://example.org/s" xmlns="http://example.org/d"/>"#
        );
    }

    #[test]
    fn declaration_comment_pi() {
        let mut d = Document::new();
        d.children.push(Node::Comment(" hello ".into()));
        d.children.push(Node::Pi {
            target: "app".into(),
            data: "x=1".into(),
        });
        d.children.push(Node::Element(Element::component("r")));
        let opts = XmlWriteOptions {
            declaration: true,
            ..Default::default()
        };
        assert_eq!(
            to_string_with(&d, &opts).unwrap(),
            "<?xml version=\"1.0\" encoding=\"UTF-8\"?><!-- hello --><?app x=1?><r/>"
        );
    }

    #[test]
    fn typed_attribute_lexical_form() {
        let d = doc(Element::component("a").with_typed_attr("n", AtomicValue::F64(0.5)));
        assert_eq!(to_string(&d).unwrap(), r#"<a n="0.5"/>"#);
    }

    #[test]
    fn write_into_reuses_buffer() {
        let d1 = doc(Element::array("v", ArrayValue::F64(vec![1.5, -2.0])));
        let d2 = doc(Element::leaf("n", AtomicValue::I32(-5)));
        let mut buf = String::new();
        write_into(&d1, &XmlWriteOptions::default(), &mut buf).unwrap();
        assert_eq!(
            buf,
            r#"<v bx:arrayType="xsd:double"><item>1.5</item><item>-2</item></v>"#
        );
        let cap = buf.capacity();
        // Second document is smaller: same capacity, content replaced.
        write_into(&d2, &XmlWriteOptions::default(), &mut buf).unwrap();
        assert_eq!(buf, r#"<n xsi:type="xsd:int">-5</n>"#);
        assert_eq!(buf.capacity(), cap);
    }

    #[test]
    fn write_element_into_matches_document_form() {
        let e = Element::array("v", ArrayValue::I32(vec![7, 8]));
        let opts = XmlWriteOptions::default();
        let mut alone = String::new();
        write_element_into(&e, &opts, &mut alone);
        let in_doc = to_string_with(&doc(e), &opts).unwrap();
        assert_eq!(alone, in_doc);
    }
}
