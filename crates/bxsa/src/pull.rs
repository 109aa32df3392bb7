//! A streaming (pull) reader for BXSA documents.
//!
//! The tree decoder ([`crate::decoder`]) materializes a full bXDM tree;
//! for large documents a consumer often wants to walk events and touch
//! only what it needs — the streaming style XBS was originally built for
//! (Chiu, "XBS: a *streaming* binary serializer", HPCS 2004). The pull
//! reader yields one event per frame boundary and hands arrays back as
//! lazy handles, so a filter that only inspects element names never pays
//! for payload decoding at all.
//!
//! ```
//! use bxdm::{Document, Element, ArrayValue};
//! use bxsa::pull::{PullReader, PullEvent};
//!
//! let doc = Document::with_root(
//!     Element::component("set")
//!         .with_child(Element::array("v", ArrayValue::F64(vec![1.0, 2.0]))),
//! );
//! let bytes = bxsa::encode(&doc).unwrap();
//! let mut names = Vec::new();
//! let mut reader = PullReader::new(&bytes).unwrap();
//! while let Some(event) = reader.next_event().unwrap() {
//!     if let PullEvent::ElementStart(start) = &event {
//!         names.push(start.name.local().to_owned());
//!     }
//! }
//! assert_eq!(names, ["set", "v"]);
//! ```

use bxdm::{ArrayValue, AtomicValue, Attribute, NamespaceDecl, NsContext, QName};
use xbs::{ByteOrder, Primitive, TypeCode, XbsReader};

use crate::error::{BxsaError, BxsaResult};
use crate::frame::{read_array_into, Cursor, Frame, FrameType};

/// The header of an element frame, common to all three element kinds.
#[derive(Debug, Clone, PartialEq)]
pub struct ElementStart {
    /// Qualified element name.
    pub name: QName,
    /// Namespace declarations on this element.
    pub namespaces: Vec<NamespaceDecl>,
    /// Typed attributes.
    pub attributes: Vec<Attribute>,
}

/// A lazy handle onto an array frame's payload.
///
/// Nothing is decoded until [`ArrayHandle::read`] or
/// [`ArrayHandle::view`] is called; skipping the element costs nothing.
#[derive(Debug, Clone, Copy)]
pub struct ArrayHandle<'a> {
    buf: &'a [u8],
    payload_start: usize,
    /// Element type of the array.
    pub code: TypeCode,
    /// Number of items.
    pub len: usize,
    /// Byte order of the payload.
    pub order: ByteOrder,
}

impl<'a> ArrayHandle<'a> {
    fn reader(&self) -> BxsaResult<XbsReader<'a>> {
        let mut r = XbsReader::new(self.buf, self.order);
        r.seek(self.payload_start)?;
        Ok(r)
    }

    /// Decode the payload into an owned [`ArrayValue`].
    pub fn read(&self) -> BxsaResult<ArrayValue> {
        let mut value = ArrayValue::U8(Vec::new());
        read_array_into(&mut self.reader()?, self.code, self.len, &mut value)?;
        Ok(value)
    }

    /// Borrow the payload zero-copy when byte order and alignment allow.
    pub fn view<T: Primitive>(&self) -> BxsaResult<Option<&'a [T]>> {
        if T::TYPE_CODE != self.code {
            return Err(BxsaError::BadValueType {
                offset: self.payload_start,
                what: format!("payload is {:?}, requested {:?}", self.code, T::TYPE_CODE),
            });
        }
        Ok(self.reader()?.read_packed_zero_copy::<T>(self.len)?)
    }
}

/// A leaf element's typed value, borrowed from the stream.
///
/// Numeric variants are decoded scalars; the string variant points into
/// the receive buffer — the aliasing contract of all borrowed pull data
/// (see [`PullEvent`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LeafValue<'a> {
    /// `xsd:byte`.
    I8(i8),
    /// `xsd:unsignedByte`.
    U8(u8),
    /// `xsd:short`.
    I16(i16),
    /// `xsd:unsignedShort`.
    U16(u16),
    /// `xsd:int`.
    I32(i32),
    /// `xsd:unsignedInt`.
    U32(u32),
    /// `xsd:long`.
    I64(i64),
    /// `xsd:unsignedLong`.
    U64(u64),
    /// `xsd:float`.
    F32(f32),
    /// `xsd:double`.
    F64(f64),
    /// `xsd:boolean`.
    Bool(bool),
    /// `xsd:string`, borrowed zero-copy from the buffer.
    Str(&'a str),
}

impl LeafValue<'_> {
    /// Copy into an owned [`AtomicValue`] (allocates for strings only).
    pub fn to_atomic(self) -> AtomicValue {
        match self {
            LeafValue::I8(v) => AtomicValue::I8(v),
            LeafValue::U8(v) => AtomicValue::U8(v),
            LeafValue::I16(v) => AtomicValue::I16(v),
            LeafValue::U16(v) => AtomicValue::U16(v),
            LeafValue::I32(v) => AtomicValue::I32(v),
            LeafValue::U32(v) => AtomicValue::U32(v),
            LeafValue::I64(v) => AtomicValue::I64(v),
            LeafValue::U64(v) => AtomicValue::U64(v),
            LeafValue::F32(v) => AtomicValue::F32(v),
            LeafValue::F64(v) => AtomicValue::F64(v),
            LeafValue::Bool(v) => AtomicValue::Bool(v),
            LeafValue::Str(v) => AtomicValue::Str(v.to_owned()),
        }
    }
}

impl<'a> From<&'a AtomicValue> for LeafValue<'a> {
    /// Borrow an owned value (strings by reference).
    fn from(value: &'a AtomicValue) -> LeafValue<'a> {
        match value {
            AtomicValue::I8(v) => LeafValue::I8(*v),
            AtomicValue::U8(v) => LeafValue::U8(*v),
            AtomicValue::I16(v) => LeafValue::I16(*v),
            AtomicValue::U16(v) => LeafValue::U16(*v),
            AtomicValue::I32(v) => LeafValue::I32(*v),
            AtomicValue::U32(v) => LeafValue::U32(*v),
            AtomicValue::I64(v) => LeafValue::I64(*v),
            AtomicValue::U64(v) => LeafValue::U64(*v),
            AtomicValue::F32(v) => LeafValue::F32(*v),
            AtomicValue::F64(v) => LeafValue::F64(*v),
            AtomicValue::Bool(v) => LeafValue::Bool(*v),
            AtomicValue::Str(v) => LeafValue::Str(v),
        }
    }
}

/// One streaming event.
///
/// Events are zero-copy: text, comment, PI, and leaf-string payloads are
/// `&str` slices *aliasing the receive buffer*, and [`ArrayHandle`] /
/// [`ArrayHandle::view`] borrow the packed payload in place. The borrow
/// checker enforces the aliasing rule — the buffer the reader was opened
/// over cannot be mutated or freed while any event (or array view) from
/// it is alive, so a connection loop must finish consuming a message's
/// events before reusing its receive buffer for the next message. Copy
/// out (`to_owned`, [`LeafValue::to_atomic`], [`ArrayHandle::read`])
/// anything that must outlive the buffer.
#[derive(Debug, Clone)]
pub enum PullEvent<'a> {
    /// An element frame opened (any kind; see the following events).
    ElementStart(ElementStart),
    /// The typed value of a leaf element (between its start and end).
    LeafValue(LeafValue<'a>),
    /// The payload handle of an array element (between start and end).
    Array(ArrayHandle<'a>),
    /// An element frame closed (emitted for leaf/array elements too).
    ElementEnd,
    /// Character data, borrowed from the buffer.
    Text(&'a str),
    /// A comment, borrowed from the buffer.
    Comment(&'a str),
    /// A processing instruction, borrowed from the buffer.
    Pi {
        /// PI target.
        target: &'a str,
        /// PI data.
        data: &'a str,
    },
}

/// What the reader still owes for an open element frame.
#[derive(Debug)]
enum Pending {
    /// A component with `remaining` child frames to read.
    Component(Frame, usize),
    /// A leaf whose value event is due.
    LeafValue(Frame),
    /// An array whose handle event is due.
    ArrayValue(Frame),
    /// An element whose end event is due.
    End(Frame),
}

/// The streaming reader.
pub struct PullReader<'a> {
    c: Cursor<'a>,
    ctx: NsContext,
    stack: Vec<Pending>,
    /// Remaining top-level frames in the document frame.
    top_remaining: usize,
    doc: Frame,
    finished: bool,
}

impl<'a> PullReader<'a> {
    /// Open a reader over an encoded document.
    pub fn new(buf: &'a [u8]) -> BxsaResult<PullReader<'a>> {
        let mut c = Cursor::new(buf);
        let (doc, top_remaining) = c.document()?;
        Ok(PullReader {
            c,
            ctx: NsContext::new(),
            stack: Vec::new(),
            top_remaining,
            doc,
            finished: false,
        })
    }

    /// Pull the next event; `None` at end of document.
    #[allow(clippy::should_implement_trait)]
    pub fn next_event(&mut self) -> BxsaResult<Option<PullEvent<'a>>> {
        if self.finished {
            return Ok(None);
        }
        // Deliver owed value/end events for the innermost open element.
        match self.stack.pop() {
            None if self.top_remaining == 0 => {
                self.finished = true;
                self.c.finish(Some(&self.doc))?;
                Ok(None)
            }
            None => {
                self.top_remaining -= 1;
                self.read_frame().map(Some)
            }
            Some(Pending::LeafValue(frame)) => {
                let value = self.c.value()?;
                self.stack.push(Pending::End(frame));
                Ok(Some(PullEvent::LeafValue(value)))
            }
            Some(Pending::ArrayValue(frame)) => {
                let (code, len) = self.c.array_head()?;
                let payload_start = self.c.r.position();
                let width = code.width().expect("array_head returns fixed-width codes");
                // Advance past the payload without decoding it.
                self.c.r.read_bytes(len * width)?;
                self.stack.push(Pending::End(frame));
                Ok(Some(PullEvent::Array(ArrayHandle {
                    buf: self.c.r.buffer(),
                    payload_start,
                    code,
                    len,
                    order: self.c.r.order(),
                })))
            }
            Some(Pending::End(frame) | Pending::Component(frame, 0)) => {
                self.ctx.pop_scope();
                self.c.close(&frame)?;
                Ok(Some(PullEvent::ElementEnd))
            }
            Some(Pending::Component(frame, remaining)) => {
                self.stack.push(Pending::Component(frame, remaining - 1));
                self.read_frame().map(Some)
            }
        }
    }

    /// Skip the innermost open element entirely (children, payload and
    /// all), without generating events or parsing what it skips — the
    /// streaming counterpart of the size-field skip-scan.
    pub fn skip_element(&mut self) -> BxsaResult<()> {
        let frame = match self.stack.pop() {
            Some(
                Pending::Component(frame, _)
                | Pending::LeafValue(frame)
                | Pending::ArrayValue(frame)
                | Pending::End(frame),
            ) => frame,
            None => {
                return Err(BxsaError::Structure {
                    what: "skip_element with no open element".into(),
                })
            }
        };
        self.ctx.pop_scope();
        self.c.skip(&frame)
    }

    fn read_frame(&mut self) -> BxsaResult<PullEvent<'a>> {
        let frame = self.c.open()?;
        if !frame.kind.is_element() {
            let event = self.c.text(frame.kind)?;
            self.c.close(&frame)?;
            return Ok(event);
        }
        let n = self.c.decls()?;
        let mut namespaces = Vec::with_capacity(n);
        for _ in 0..n {
            let (prefix, uri) = self.c.decl()?;
            namespaces.push(NamespaceDecl {
                prefix: prefix.map(str::to_owned),
                uri: uri.to_owned(),
            });
        }
        self.ctx.push_scope(&namespaces);
        let name = self.read_qname()?;
        let n = self.c.attrs()?;
        let mut attributes = Vec::with_capacity(n);
        for _ in 0..n {
            let name = self.read_qname()?;
            let value = self.c.value()?.to_atomic();
            attributes.push(Attribute { name, value });
        }
        self.stack.push(match frame.kind {
            FrameType::Component => Pending::Component(frame, self.c.children()?),
            FrameType::Leaf => Pending::LeafValue(frame),
            _ => Pending::ArrayValue(frame),
        });
        Ok(PullEvent::ElementStart(ElementStart {
            name,
            namespaces,
            attributes,
        }))
    }

    fn read_qname(&mut self) -> BxsaResult<QName> {
        let name = self.c.name()?;
        Ok(QName::new(
            name.resolve(|r| self.ctx.lookup_ref(r))?,
            name.local,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::encode;
    use bxdm::{Document, Element, Node};

    fn sample_doc() -> Document {
        Document::with_root(
            Element::component("d:set")
                .with_namespace("d", "http://example.org")
                .with_attr("run", "1")
                .with_child(Element::leaf("d:count", AtomicValue::I32(2)))
                .with_child(Element::array(
                    "d:values",
                    ArrayValue::F64(vec![0.5, 1.5, -2.0]),
                ))
                .with_text("note")
                .with_comment("end"),
        )
    }

    /// Replay pull events into a tree and compare with the tree decoder.
    fn rebuild(bytes: &[u8]) -> Document {
        let mut reader = PullReader::new(bytes).unwrap();
        let mut doc = Document::new();
        let mut stack: Vec<Element> = Vec::new();
        while let Some(event) = reader.next_event().unwrap() {
            match event {
                PullEvent::ElementStart(start) => {
                    let mut e = Element::component(start.name.lexical().as_str());
                    e.namespaces = start.namespaces;
                    e.attributes = start.attributes;
                    stack.push(e);
                }
                PullEvent::LeafValue(v) => {
                    stack.last_mut().unwrap().content = bxdm::Content::Leaf(v.to_atomic());
                }
                PullEvent::Array(h) => {
                    stack.last_mut().unwrap().content = bxdm::Content::Array(h.read().unwrap());
                }
                PullEvent::ElementEnd => {
                    let done = stack.pop().unwrap();
                    match stack.last_mut() {
                        Some(parent) => parent.push_child(done),
                        None => doc.children.push(Node::Element(done)),
                    }
                }
                PullEvent::Text(t) => match stack.last_mut() {
                    Some(p) => p.push_node(Node::Text(t.to_owned())),
                    None => doc.children.push(Node::Text(t.to_owned())),
                },
                PullEvent::Comment(c) => match stack.last_mut() {
                    Some(p) => p.push_node(Node::Comment(c.to_owned())),
                    None => doc.children.push(Node::Comment(c.to_owned())),
                },
                PullEvent::Pi { target, data } => {
                    let node = Node::Pi {
                        target: target.to_owned(),
                        data: data.to_owned(),
                    };
                    match stack.last_mut() {
                        Some(p) => p.push_node(node),
                        None => doc.children.push(node),
                    }
                }
            }
        }
        doc
    }

    #[test]
    fn pull_rebuild_matches_tree_decode() {
        let doc = sample_doc();
        let bytes = encode(&doc).unwrap();
        assert_eq!(rebuild(&bytes), doc);
    }

    #[test]
    fn event_sequence_shape() {
        let bytes = encode(&sample_doc()).unwrap();
        let mut reader = PullReader::new(&bytes).unwrap();
        let mut kinds = Vec::new();
        while let Some(e) = reader.next_event().unwrap() {
            kinds.push(match e {
                PullEvent::ElementStart(_) => "start",
                PullEvent::LeafValue(_) => "leaf",
                PullEvent::Array(_) => "array",
                PullEvent::ElementEnd => "end",
                PullEvent::Text(_) => "text",
                PullEvent::Comment(_) => "comment",
                PullEvent::Pi { .. } => "pi",
            });
        }
        assert_eq!(
            kinds,
            vec![
                "start", // d:set
                "start", "leaf", "end", // d:count
                "start", "array", "end", // d:values
                "text", "comment", "end", // note, end-comment, </d:set>
            ]
        );
    }

    #[test]
    fn skip_element_jumps_payload() {
        let doc = Document::with_root(
            Element::component("root")
                .with_child(Element::array(
                    "big",
                    ArrayValue::F64((0..10_000).map(f64::from).collect()),
                ))
                .with_child(Element::leaf("after", AtomicValue::Bool(true))),
        );
        let bytes = encode(&doc).unwrap();
        let mut reader = PullReader::new(&bytes).unwrap();
        // root start, big start...
        assert!(matches!(
            reader.next_event().unwrap(),
            Some(PullEvent::ElementStart(_))
        ));
        match reader.next_event().unwrap() {
            Some(PullEvent::ElementStart(s)) => assert_eq!(s.name.local(), "big"),
            other => panic!("unexpected {other:?}"),
        }
        // Skip the array without reading its handle.
        reader.skip_element().unwrap();
        match reader.next_event().unwrap() {
            Some(PullEvent::ElementStart(s)) => assert_eq!(s.name.local(), "after"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn array_handle_lazy_read_and_view() {
        let values: Vec<f64> = (0..64).map(|i| i as f64 * 0.25).collect();
        let doc = Document::with_root(Element::array("v", ArrayValue::F64(values.clone())));
        let bytes = encode(&doc).unwrap();
        let mut reader = PullReader::new(&bytes).unwrap();
        reader.next_event().unwrap(); // start
        match reader.next_event().unwrap() {
            Some(PullEvent::Array(h)) => {
                assert_eq!(h.len, 64);
                assert_eq!(h.code, TypeCode::F64);
                assert_eq!(h.read().unwrap(), ArrayValue::F64(values.clone()));
                if let Some(view) = h.view::<f64>().unwrap() {
                    assert_eq!(view, &values[..]);
                }
                assert!(h.view::<i32>().is_err());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    /// Text, comment, PI, and leaf-string events alias the input buffer
    /// (no copies): each borrowed slice's address range lies inside it.
    #[test]
    fn events_borrow_payload_from_buffer() {
        let mut root = Element::component("r")
            .with_child(Element::leaf("s", AtomicValue::Str("payload".into())))
            .with_text("note")
            .with_comment("c");
        root.push_node(Node::Pi {
            target: "t".into(),
            data: "d".into(),
        });
        let doc = Document::with_root(root);
        let bytes = encode(&doc).unwrap();
        let range = bytes.as_ptr() as usize..bytes.as_ptr() as usize + bytes.len();
        let in_buf = |s: &str| range.contains(&(s.as_ptr() as usize));
        let mut reader = PullReader::new(&bytes).unwrap();
        let mut borrowed = 0;
        while let Some(event) = reader.next_event().unwrap() {
            match event {
                PullEvent::Text(t) | PullEvent::Comment(t) => {
                    assert!(in_buf(t), "text/comment must alias the buffer");
                    borrowed += 1;
                }
                PullEvent::LeafValue(LeafValue::Str(s)) => {
                    assert!(in_buf(s), "leaf string must alias the buffer");
                    borrowed += 1;
                }
                PullEvent::Pi { target, data } => {
                    assert!(in_buf(target) && in_buf(data), "pi must alias the buffer");
                    borrowed += 1;
                }
                _ => {}
            }
        }
        assert_eq!(borrowed, 4);
    }

    #[test]
    fn namespace_context_tracks_across_events() {
        let doc = Document::with_root(
            Element::component("a:r")
                .with_namespace("a", "http://a")
                .with_child(Element::leaf("a:x", AtomicValue::I32(1))),
        );
        let bytes = encode(&doc).unwrap();
        let rebuilt = rebuild(&bytes);
        assert_eq!(rebuilt, doc);
    }

    #[test]
    fn truncated_stream_errors() {
        let bytes = encode(&sample_doc()).unwrap();
        let cut = &bytes[..bytes.len() / 2];
        // The document frame's declared size now exceeds the truncated
        // buffer, so the open itself may reject — also a surfaced error.
        let mut reader = match PullReader::new(cut) {
            Ok(r) => r,
            Err(_) => return,
        };
        let mut saw_error = false;
        for _ in 0..100 {
            match reader.next_event() {
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(_) => {
                    saw_error = true;
                    break;
                }
            }
        }
        assert!(saw_error, "truncation must surface as an error");
    }

    #[test]
    fn rejects_non_document_input() {
        assert!(PullReader::new(&[0x02, 0x05]).is_err());
        assert!(PullReader::new(&[]).is_err());
    }
}
