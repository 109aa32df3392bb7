//! Field-at-a-time BXSA access: the schema-known fast path.
//!
//! The tree codec ([`crate::encoder`]/[`crate::pull`]) serializes any
//! bXDM document, but a caller whose message type is statically known
//! pays for generality it doesn't need: building the tree, walking it,
//! tearing it down. This module exposes the same wire format — **byte
//! for byte** — as a pair of cursors:
//!
//! * [`FrameWriter`] writes element frames directly from typed fields
//!   (scalars, `&str`, packed numeric slices) through the same frame
//!   writer as the tree encoder, reserving frame size fields from the
//!   same [`crate::estimate`] arithmetic, so a typed encode of a message
//!   and a tree encode of its bXDM equivalent produce identical bytes.
//! * [`FieldReader`] pulls element headers and typed values straight off
//!   the frame stream with no per-element allocation at all: strings are
//!   borrowed, arrays refill caller-owned buffers or are read in place
//!   ([`FieldReader::read_array_view`]), and
//!   [`FieldReader::finish`] checks the document end and the checksum
//!   trailer.
//!
//! Both are thin layers over the crate's one frame core, so every field
//! they write or read gets the same checks as on the tree path, and so
//! does every frame the reader skips. Namespace references must resolve
//! as on the tree path, but the reader keeps only the size of each open
//! element's namespace table, not the declarations: typed readers match
//! local names.
//!
//! Typed elements carry no attributes — the model's typing attributes
//! (`xsi:type`, `bx:arrayType`) exist only in the *textual* encoding;
//! BXSA frames are self-describing through their type-code bytes.
//!
//! ```
//! use bxsa::typed::{FrameWriter, FieldReader, TypedName};
//! use xbs::ByteOrder;
//!
//! let mut w = FrameWriter::new(ByteOrder::Little);
//! let name = TypedName::new(Some("d"), "set");
//! let decls = &[(Some("d"), "http://example.org/data")];
//! let values = [1.0f64, 2.0, 3.0];
//!
//! let body = bxsa::estimate::plain_component_body_bound(
//!     "set", decls, 1,
//!     bxsa::estimate::framed(bxsa::estimate::plain_array_body_bound(
//!         "values", &[], xbs::TypeCode::F64, values.len())),
//! );
//! let mut buf = Vec::new();
//! w.begin_document(&mut buf, 1, FrameWriter::document_bound(body));
//! w.begin_component(name, decls, 1, body).unwrap();
//! w.array(TypedName::new(Some("d"), "values"), &[], &values).unwrap();
//! w.end_component().unwrap();
//! w.finish_document(&mut buf).unwrap();
//!
//! let mut r = FieldReader::new(&buf).unwrap();
//! let set = r.open().unwrap();
//! assert_eq!(set.local, "set");
//! let arr = r.open().unwrap();
//! let mut out = Vec::new();
//! r.read_array_into::<f64>(&arr, &mut out).unwrap();
//! assert_eq!(out, values);
//! r.close(&set).unwrap();
//! ```

use std::borrow::Cow;

use bxdm::namespace::NsRef;
use xbs::{ByteOrder, Primitive, TypeCode, XbsWriter};

use crate::error::{BxsaError, BxsaResult};
use crate::estimate::{self, framed};
use crate::frame::{Cursor, Frame, FrameType, Open, Out, Scopes, CHECKSUM_FRAME_LEN};
use crate::pull::{LeafValue, PullEvent};
use crate::scatter::Slot;
use crate::{MAX_DEPTH, MAX_REFS};

/// A namespace declaration as typed schemas carry them: `(prefix, uri)`,
/// `None` prefix for the default namespace. `'static` because typed
/// message schemas are compile-time constants (tests that need dynamic
/// names leak them).
pub type TypedDecl = (Option<&'static str>, &'static str);

/// A (possibly prefixed) element name with `'static` parts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TypedName {
    /// Namespace prefix, `None` for an unprefixed name.
    pub prefix: Option<&'static str>,
    /// Local part.
    pub local: &'static str,
}

impl TypedName {
    /// Assemble a name.
    pub const fn new(prefix: Option<&'static str>, local: &'static str) -> TypedName {
        TypedName { prefix, local }
    }
}

/// A reusable typed frame writer.
///
/// Per message: [`FrameWriter::begin_document`] takes over a caller
/// buffer (cleared, capacity kept) and pre-reserves the full document
/// bound, element fields are appended, and
/// [`FrameWriter::finish_document`] hands the buffer back. The writer's
/// own scratch (open-frame stack, namespace scopes) is retained across
/// messages, so steady-state typed encoding performs **zero** heap
/// allocations — and debug builds assert the buffer never reallocated
/// mid-message, turning "the estimate is an upper bound" into a checked
/// invariant.
///
/// # Gathered encodes
///
/// An encoder (soap's `ToBxsa`, say) lends the writer its values only
/// for the length of one call, so a message whose large arrays go to
/// the socket from where the caller holds them is written in two passes
/// over the same encoder:
///
/// 1. With [`set_gather`](FrameWriter::set_gather) on, the message is
///    written as usual, except that each array of at least 4 KiB (at
///    most [`MAX_REFS`] of them) is counted in the frame sizes but left
///    out of the buffer, exactly as
///    [`encode_parts_into`](crate::encode_parts_into) leaves a tree's
///    arrays. Only the machine's own byte order and no checksum leave
///    arrays out. The buffer then holds every byte but those arrays,
///    and [`deferred_bytes`](FrameWriter::deferred_bytes) says how many
///    bytes they add.
/// 2. [`replay`](FrameWriter::replay) gives a writer that writes
///    nothing: the same encoder run against it hands each left-out
///    array, with the buffer's bytes before it, to a sink, and
///    [`finish_replay`](FrameWriter::finish_replay) hands over the rest.
///    An array whose type or size differs from pass 1, or one missing,
///    is an error, so the pieces are either exactly the flat encode or
///    an error.
///
/// ```
/// use bxsa::typed::{FrameWriter, TypedName};
/// use xbs::ByteOrder;
///
/// let values = vec![1.5f64; 1024];
/// let body = bxsa::estimate::plain_array_body_bound("v", &[], xbs::TypeCode::F64, values.len());
/// let encode = |w: &mut FrameWriter<'_>| w.array(TypedName::new(None, "v"), &[], &values);
///
/// let mut w = FrameWriter::new(ByteOrder::native());
/// let mut flat = Vec::new();
/// w.begin_document(&mut flat, 1, FrameWriter::document_bound(body));
/// encode(&mut w).unwrap();
/// w.finish_document(&mut flat).unwrap();
///
/// w.set_gather(true);
/// let mut head = Vec::new();
/// w.begin_document(&mut head, 1, FrameWriter::document_bound(body));
/// encode(&mut w).unwrap();
/// w.finish_document(&mut head).unwrap();
/// assert_eq!(head.len() + w.deferred_bytes(), flat.len());
///
/// let mut gathered = Vec::new();
/// let mut sink = |head: &[u8], payload: &[u8]| {
///     gathered.extend_from_slice(head);
///     gathered.extend_from_slice(payload);
/// };
/// let mut replay = w.replay(&head, &mut sink);
/// encode(&mut replay).unwrap();
/// replay.finish_replay().unwrap();
/// assert_eq!(gathered, flat);
/// ```
pub struct FrameWriter<'s> {
    out: Out,
    order: ByteOrder,
    /// Open frames, innermost last.
    frames: Vec<Open>,
    /// In-scope namespace declarations, flat; one scope per open element.
    decls: Vec<TypedDecl>,
    scope_starts: Vec<usize>,
    /// Buffer identity at message start, for the debug no-realloc check.
    guard: (usize, usize),
    /// Append a CRC32C checksum frame after each document frame.
    checksum: bool,
    /// Leave large arrays out of the buffer (pass 1 of a gathered encode).
    gather: bool,
    /// The arrays the last message left out, in wire order.
    deferred: Vec<Deferred>,
    /// `array` calls so far in this message.
    arrays: usize,
    /// Pass 2 of a gathered encode: set on writers made by `replay`.
    replay: Option<Replay<'s>>,
}

/// An array a gathering encode left out of the buffer: where its bytes
/// belong in the buffer, which `array` call of the message wrote it, and
/// its element type and payload size, which the replay must match.
#[derive(Debug, Clone, Copy)]
struct Deferred {
    at: usize,
    ordinal: usize,
    code: TypeCode,
    bytes: usize,
}

/// A replay's progress through the buffer pass 1 wrote.
struct Replay<'s> {
    head: &'s [u8],
    deferred: &'s [Deferred],
    sink: &'s mut (dyn FnMut(&[u8], &[u8]) + Send),
    /// The next entry of `deferred` to send.
    next: usize,
    /// Bytes of `head` handed to the sink so far.
    sent: usize,
}

impl Replay<'_> {
    /// The `ordinal`th array of the replayed message: send it with the
    /// head bytes before it if pass 1 left it out.
    fn array(&mut self, ordinal: usize, code: TypeCode, payload: &[u8]) -> BxsaResult<()> {
        let Some(d) = self
            .deferred
            .get(self.next)
            .filter(|d| d.ordinal == ordinal)
        else {
            return Ok(());
        };
        if d.code != code || d.bytes != payload.len() {
            return Err(BxsaError::Structure {
                what: format!(
                    "replayed array {ordinal} is {code:?} x {} bytes; the encode it replays \
                     wrote {:?} x {} bytes",
                    payload.len(),
                    d.code,
                    d.bytes
                ),
            });
        }
        (self.sink)(&self.head[self.sent..d.at], payload);
        self.sent = d.at;
        self.next += 1;
        Ok(())
    }
}

impl<'s> FrameWriter<'s> {
    /// A writer encoding in the given byte order.
    pub fn new(order: ByteOrder) -> FrameWriter<'s> {
        FrameWriter {
            out: Out(XbsWriter::new(order)),
            order,
            frames: Vec::new(),
            decls: Vec::new(),
            scope_starts: Vec::new(),
            guard: (0, 0),
            checksum: false,
            gather: false,
            deferred: Vec::new(),
            arrays: 0,
            replay: None,
        }
    }

    /// Enable or disable the trailing CRC32C checksum frame on
    /// subsequent messages (mirrors
    /// [`EncodeOptions::checksum`](crate::EncodeOptions)).
    pub fn set_checksum(&mut self, enabled: bool) {
        self.checksum = enabled;
    }

    /// Leave large arrays out of the buffer on subsequent messages, for
    /// a gathered encode (see the type's docs). Has no effect on a
    /// message with a checksum or in a foreign byte order.
    pub fn set_gather(&mut self, enabled: bool) {
        self.gather = enabled;
    }

    /// Payload bytes of the arrays the last message left out of its
    /// buffer: the buffer's length plus this is the message's length.
    pub fn deferred_bytes(&self) -> usize {
        self.deferred.iter().map(|d| d.bytes).sum()
    }

    /// How many arrays the last message left out of its buffer.
    pub fn deferred_arrays(&self) -> usize {
        self.deferred.len()
    }

    /// The byte order frames are written in.
    pub fn order(&self) -> ByteOrder {
        self.order
    }

    /// Change the byte order for subsequent messages.
    pub fn set_order(&mut self, order: ByteOrder) {
        self.order = order;
    }

    /// Pass 2 of a gathered encode: a writer that writes nothing, for
    /// running the same encoder again over `head`, the buffer this
    /// writer's last message wrote. Each array this message left out goes
    /// to `sink` as `(head bytes before it, its payload)`, from the
    /// values the encoder lends; every other call only returns `Ok`.
    /// Finish with [`finish_replay`](FrameWriter::finish_replay).
    pub fn replay<'r>(
        &'r self,
        head: &'r [u8],
        sink: &'r mut (dyn FnMut(&[u8], &[u8]) + Send),
    ) -> FrameWriter<'r> {
        let mut w = FrameWriter::new(self.order);
        w.replay = Some(Replay {
            head,
            deferred: &self.deferred,
            sink,
            next: 0,
            sent: 0,
        });
        w
    }

    /// End a replay: hand the sink the head bytes after the last array
    /// (as `(rest, &[])`, when there are any). Errors, sending nothing
    /// more, if the replay did not reach every array pass 1 left out.
    ///
    /// # Panics
    /// Panics on a writer not made by [`replay`](FrameWriter::replay).
    pub fn finish_replay(mut self) -> BxsaResult<()> {
        let r = self
            .replay
            .as_mut()
            .expect("finish_replay on a writer made by replay");
        if r.next != r.deferred.len() {
            return Err(BxsaError::Structure {
                what: format!(
                    "the replay reached {} of the {} arrays the encode it replays left out",
                    r.next,
                    r.deferred.len()
                ),
            });
        }
        if r.sent < r.head.len() {
            (r.sink)(&r.head[r.sent..], &[]);
        }
        Ok(())
    }

    /// Start a document frame into `buf` (taken over; cleared, capacity
    /// kept). `body_bound` must bound the document frame's body — use
    /// [`estimate::framed`] over the root's body bound plus the child
    /// count VLS, or simply the root's [`estimate::framed`] bound plus
    /// one, which [`document_bound`](FrameWriter::document_bound)
    /// computes.
    pub fn begin_document(&mut self, buf: &mut Vec<u8>, child_count: usize, body_bound: usize) {
        let mut taken = std::mem::take(buf);
        taken.clear();
        // One reservation for the whole message: the exact-size
        // preallocation the estimate exists for. The checksum frame (if
        // enabled) lands after the document frame, inside the same
        // reservation, so the no-realloc guard still holds.
        let trailer = if self.checksum { CHECKSUM_FRAME_LEN } else { 0 };
        taken.reserve(framed(body_bound) + trailer);
        self.guard = (taken.capacity(), taken.as_ptr() as usize);
        self.out = Out(XbsWriter::from_buf(taken, self.order));
        self.frames.clear();
        self.decls.clear();
        self.scope_starts.clear();
        self.deferred.clear();
        self.arrays = 0;
        self.frames
            .push(self.out.open(FrameType::Document, body_bound));
        self.out.0.put_vls(child_count as u64);
    }

    /// The document-frame body bound for a single root element with the
    /// given body bound.
    pub fn document_bound(root_body_bound: usize) -> usize {
        xbs::vls::vls_len(1) + framed(root_body_bound)
    }

    /// Close the document frame and hand the buffer back.
    ///
    /// Errors if element frames are still open. In debug builds, asserts
    /// the buffer never reallocated since
    /// [`begin_document`](FrameWriter::begin_document) — i.e. that every
    /// bound supplied really was an upper bound.
    pub fn finish_document(&mut self, buf: &mut Vec<u8>) -> BxsaResult<()> {
        let [doc] = self.frames[..] else {
            return Err(BxsaError::Structure {
                what: format!(
                    "{} element frame(s) still open at finish",
                    self.frames.len() - 1
                ),
            });
        };
        self.frames.clear();
        self.out.close(doc);
        if self.checksum {
            self.out.checksum();
        }
        *buf = self.out.0.take_buf();
        debug_assert_eq!(
            (buf.capacity(), buf.as_ptr() as usize),
            self.guard,
            "typed encode reallocated mid-message: an estimate bound was not an upper bound"
        );
        Ok(())
    }

    /// Abandon the in-progress message: recover the buffer (cleared,
    /// capacity kept) without the structural checks of
    /// [`finish_document`](FrameWriter::finish_document). The error
    /// path's counterpart, so a failed encode never poisons a reused
    /// writer or buffer.
    pub fn abandon(&mut self, buf: &mut Vec<u8>) {
        self.frames.clear();
        self.decls.clear();
        self.scope_starts.clear();
        self.deferred.clear();
        *buf = self.out.0.take_buf();
        buf.clear();
    }

    /// Open a component element frame expecting exactly `child_count`
    /// child elements. `body_bound` must be the element's body bound
    /// ([`estimate::plain_component_body_bound`]); supplying the same
    /// number the tree estimate would compute keeps the reserved size
    /// field — and therefore the wire bytes — identical to the tree
    /// encoder's.
    pub fn begin_component(
        &mut self,
        name: TypedName,
        decls: &[TypedDecl],
        child_count: usize,
        body_bound: usize,
    ) -> BxsaResult<()> {
        if self.replay.is_some() {
            return Ok(());
        }
        self.frames
            .push(self.out.open(FrameType::Component, body_bound));
        self.header(name, decls)?;
        self.out.0.put_vls(child_count as u64);
        Ok(())
    }

    /// Close the innermost open component.
    pub fn end_component(&mut self) -> BxsaResult<()> {
        if self.replay.is_some() {
            return Ok(());
        }
        if self.frames.len() < 2 {
            return Err(BxsaError::Structure {
                what: "end_component with no open component".into(),
            });
        }
        let frame = self.frames.pop().expect("checked above");
        self.out.close(frame);
        self.pop_scope();
        Ok(())
    }

    /// Write a complete fixed-width leaf element frame.
    pub fn leaf<T: Primitive>(
        &mut self,
        name: TypedName,
        decls: &[TypedDecl],
        value: T,
    ) -> BxsaResult<()> {
        let bound = estimate::plain_leaf_body_bound(name.local, decls, T::TYPE_CODE, 0);
        self.element(FrameType::Leaf, name, decls, bound, |out| out.scalar(value))
    }

    /// Write a complete string leaf element frame.
    pub fn leaf_str(
        &mut self,
        name: TypedName,
        decls: &[TypedDecl],
        value: &str,
    ) -> BxsaResult<()> {
        let bound = estimate::plain_leaf_body_bound(name.local, decls, TypeCode::Str, value.len());
        self.element(FrameType::Leaf, name, decls, bound, |out| {
            out.value(LeafValue::Str(value))
        })
    }

    /// Write a complete boolean leaf element frame.
    pub fn leaf_bool(
        &mut self,
        name: TypedName,
        decls: &[TypedDecl],
        value: bool,
    ) -> BxsaResult<()> {
        let bound = estimate::plain_leaf_body_bound(name.local, decls, TypeCode::Bool, 0);
        self.element(FrameType::Leaf, name, decls, bound, |out| {
            out.value(LeafValue::Bool(value))
        })
    }

    /// Write a complete packed-array element frame. In a gathered
    /// encode, a large array's payload is left out of the buffer (pass
    /// 1) or handed to the replay's sink (pass 2).
    pub fn array<T: Primitive>(
        &mut self,
        name: TypedName,
        decls: &[TypedDecl],
        values: &[T],
    ) -> BxsaResult<()> {
        let ordinal = self.arrays;
        self.arrays += 1;
        if let Some(r) = &mut self.replay {
            return r.array(ordinal, T::TYPE_CODE, xbs::prim::bytes_of(values));
        }
        let defer = self.gather && !self.checksum && self.deferred.len() < MAX_REFS;
        let mut left_at = None;
        let bound = estimate::plain_array_body_bound(name.local, decls, T::TYPE_CODE, values.len());
        self.element(FrameType::Array, name, decls, bound, |out| {
            if !defer {
                out.array(values, None);
            } else if out.defer_array(values).is_some() {
                left_at = Some(out.0.as_bytes().len());
            }
        })?;
        if let Some(at) = left_at {
            self.deferred.push(Deferred {
                at,
                ordinal,
                code: T::TYPE_CODE,
                bytes: std::mem::size_of_val(values),
            });
        }
        Ok(())
    }

    /// A whole leaf or array element frame: header, then `content`.
    fn element(
        &mut self,
        kind: FrameType,
        name: TypedName,
        decls: &[TypedDecl],
        bound: usize,
        content: impl FnOnce(&mut Out),
    ) -> BxsaResult<()> {
        if self.replay.is_some() {
            return Ok(());
        }
        let frame = self.out.open(kind, bound);
        self.header(name, decls)?;
        content(&mut self.out);
        self.out.close(frame);
        self.pop_scope();
        Ok(())
    }

    /// Namespace table, name reference, local name, empty attribute
    /// table — the header every typed element frame shares. Pushes the
    /// element's scope (popped by `end_component`/the leaf writers).
    fn header(&mut self, name: TypedName, decls: &[TypedDecl]) -> BxsaResult<()> {
        self.out.0.put_vls(decls.len() as u64);
        for &(prefix, uri) in decls {
            self.out.decl(prefix, uri)?;
        }
        self.scope_starts.push(self.decls.len());
        self.decls.extend_from_slice(decls);
        self.out
            .name(name.prefix, self.find_ref(name.prefix), name.local)?;
        self.out.0.put_vls(0); // typed elements carry no attributes
        Ok(())
    }

    fn pop_scope(&mut self) {
        let start = self.scope_starts.pop().expect("scope pushed by header");
        self.decls.truncate(start);
    }

    /// The namespace reference of `bxdm::ScopeChain::find_ref`: innermost
    /// scope first, later declarations within a scope win.
    fn find_ref(&self, prefix: Option<&str>) -> Option<NsRef> {
        let mut end = self.decls.len();
        for (depth, &start) in self.scope_starts.iter().rev().enumerate() {
            if let Some(index) = self.decls[start..end].iter().rposition(|d| d.0 == prefix) {
                return Some(NsRef {
                    scope_depth: depth as u32,
                    index: index as u32,
                });
            }
            end = start;
        }
        None
    }
}

/// One parsed element frame header: what [`FieldReader::open`] saw.
///
/// Carries the frame's extent so [`FieldReader::close`] can verify the
/// declared size.
#[derive(Debug, Clone, Copy)]
pub struct ElementHead<'a> {
    /// Local name (typed readers match local names, like the envelope
    /// layer's tree consumers). Empty for non-element frames (text,
    /// comment, PI).
    pub local: &'a str,
    /// The frame type: `Component`, `Leaf`, `Array`, or a text-like.
    pub kind: FrameType,
    /// Number of attributes the element carried (typed writers emit
    /// none; a nonzero count tells schema-aware consumers to fall back
    /// to the generic tree path).
    pub attr_count: usize,
    /// Declared child-element count (component frames only).
    pub child_count: usize,
    frame: Frame,
}

/// An allocation-free pull cursor over a BXSA document's frames.
///
/// Unlike [`crate::pull::PullReader`] — which materializes namespace
/// contexts, attribute vectors, and an event stack per message — this
/// reader holds only the frame core's cursor and the namespace-table size
/// of each open element: open/close state lives in the caller's control
/// flow as [`ElementHead`] values, so a schema-known decode performs no
/// heap allocation at all beyond the arrays it refills in place.
///
/// A reader from [`crate::Scatter::reader`] reads a document whose large
/// arrays were received into typed slots: it counts each one in its
/// stream offsets, and hands it over when read (see
/// [`read_array_into`](FieldReader::read_array_into)). Clones share the
/// slots.
#[derive(Clone)]
pub struct FieldReader<'a> {
    c: Cursor<'a>,
    doc: Frame,
    top_count: usize,
    scopes: Scopes,
    /// The placed arrays' slots, by gap (none for flat bytes).
    slots: &'a [Slot],
}

impl<'a> FieldReader<'a> {
    /// Open a document: validates the document frame prefix and size
    /// field, and positions the cursor at the first child frame.
    pub fn new(bytes: &'a [u8]) -> BxsaResult<FieldReader<'a>> {
        FieldReader::open_document(Cursor::new(bytes), &[])
    }

    /// [`new`](FieldReader::new) over a received document's head, its
    /// placed payloads `gaps`, and their slots.
    pub(crate) fn placed(
        head: &'a [u8],
        gaps: &'a [xbs::reader::Gap],
        slots: &'a [Slot],
    ) -> BxsaResult<FieldReader<'a>> {
        let r = xbs::XbsReader::with_gaps(head, ByteOrder::Little, gaps);
        FieldReader::open_document(Cursor::over(r, 0), slots)
    }

    fn open_document(mut c: Cursor<'a>, slots: &'a [Slot]) -> BxsaResult<FieldReader<'a>> {
        let (doc, top_count) = c.document()?;
        Ok(FieldReader {
            c,
            doc,
            top_count,
            scopes: [0; MAX_DEPTH],
            slots,
        })
    }

    /// The slot of the placed array at the cursor, when one of `bytes`
    /// payload bytes starts here: passed over, for the caller to take.
    fn placed_here(&mut self, bytes: Option<usize>) -> Option<&'a Slot> {
        let (gap, len) = self.c.r.gap_here()?;
        if Some(len) != bytes {
            return None;
        }
        self.c.r.pass_gap();
        self.slots.get(gap)
    }

    /// Declared number of top-level frames (a SOAP message has one).
    pub fn top_count(&self) -> usize {
        self.top_count
    }

    /// Current byte offset (diagnostics).
    pub fn position(&self) -> usize {
        self.c.r.position()
    }

    /// Parse the next frame's header.
    ///
    /// For element frames the cursor stops at the content: the child
    /// frames of a component (whose declared count is in the head), or
    /// the value of a leaf/array — read it with
    /// [`read_value`](FieldReader::read_value) /
    /// [`read_str`](FieldReader::read_str) /
    /// [`read_bool`](FieldReader::read_bool) /
    /// [`read_array_into`](FieldReader::read_array_into). For text-like
    /// frames the head carries an empty name; [`skip`](FieldReader::skip)
    /// past them. Every opened head must be consumed by exactly one of
    /// the value readers, [`close`](FieldReader::close) (components,
    /// after their children), or [`skip`](FieldReader::skip).
    pub fn open(&mut self) -> BxsaResult<ElementHead<'a>> {
        let frame = self.c.open()?;
        let mut head = ElementHead {
            local: "",
            kind: frame.kind,
            attr_count: 0,
            child_count: 0,
            frame,
        };
        if frame.kind.is_element() {
            (head.local, head.attr_count) = self.c.header(Some(&mut self.scopes))?;
            if frame.kind == FrameType::Component {
                head.child_count = self.c.children()?;
            }
        }
        Ok(head)
    }

    /// Verify a fully consumed frame ended exactly at its declared size.
    pub fn close(&mut self, head: &ElementHead<'a>) -> BxsaResult<()> {
        self.c.close(&head.frame)
    }

    /// Read past an opened frame's content, building nothing, with every
    /// check the tree decoder makes: names, values, text, nested frames,
    /// [`MAX_DEPTH`] and each frame's declared end. A typed read that
    /// skips what it does not need accepts exactly what the tree decoder
    /// accepts.
    pub fn skip(&mut self, head: &ElementHead<'a>) -> BxsaResult<()> {
        match head.kind {
            FrameType::Leaf => {
                self.c.value()?;
            }
            FrameType::Array => self.c.skip_array()?,
            FrameType::Component => {
                for _ in 0..head.child_count {
                    let child = self.open()?;
                    self.skip(&child)?;
                }
            }
            text => {
                self.c.text(text)?;
            }
        }
        self.close(head)
    }

    /// After the last top-level frame: the document frame must end here,
    /// and the input must then end or carry one checksum frame, which is
    /// verified — the same end-of-input check as the tree decoder's.
    pub fn finish(&mut self) -> BxsaResult<()> {
        self.c.finish(Some(&self.doc))
    }

    /// Read an opened leaf's fixed-width value (and close the frame).
    pub fn read_value<T: Primitive>(&mut self, head: &ElementHead<'a>) -> BxsaResult<T> {
        expect_kind(head, FrameType::Leaf)?;
        let value = self.c.scalar::<T>()?;
        self.close(head)?;
        Ok(value)
    }

    /// Read an opened leaf's string value, borrowed from the input (and
    /// close the frame).
    pub fn read_str(&mut self, head: &ElementHead<'a>) -> BxsaResult<&'a str> {
        match self.read_leaf(head)? {
            LeafValue::Str(s) => Ok(s),
            other => Err(mistyped(head, other)),
        }
    }

    /// Read an opened leaf's boolean value (and close the frame).
    pub fn read_bool(&mut self, head: &ElementHead<'a>) -> BxsaResult<bool> {
        match self.read_leaf(head)? {
            LeafValue::Bool(b) => Ok(b),
            other => Err(mistyped(head, other)),
        }
    }

    /// Read an opened leaf's value whatever its type, a string borrowed
    /// from the input (and close the frame).
    pub fn read_leaf(&mut self, head: &ElementHead<'a>) -> BxsaResult<LeafValue<'a>> {
        expect_kind(head, FrameType::Leaf)?;
        let value = self.c.value()?;
        self.close(head)?;
        Ok(value)
    }

    /// Read an opened character-data frame's text, borrowed from the
    /// input (and close the frame).
    pub fn read_char_data(&mut self, head: &ElementHead<'a>) -> BxsaResult<&'a str> {
        expect_kind(head, FrameType::CharData)?;
        let PullEvent::Text(text) = self.c.text(FrameType::CharData)? else {
            unreachable!("a character-data frame reads as text");
        };
        self.close(head)?;
        Ok(text)
    }

    /// Is the opened frame `head` an array of `T`? Reads nothing: the
    /// frame is still to be read or [`skip`](FieldReader::skip)ped.
    pub fn is_array_of<T: Primitive>(&self, head: &ElementHead<'a>) -> bool {
        head.kind == FrameType::Array && self.c.clone().array_of::<T>().is_ok()
    }

    /// Refill `out` (cleared, capacity kept) from an opened array frame
    /// (and close the frame). Steady-state decode of same-shape messages
    /// allocates nothing once `out` has grown to the working set.
    ///
    /// An array placed in a slot by a [`crate::Scatter`] is not copied:
    /// `out` exchanges buffers with the slot, which keeps `out`'s old
    /// buffer for the next message, instead of refilling its capacity.
    /// A placed array is handed over once; reading it again is an error.
    pub fn read_array_into<T: Primitive>(
        &mut self,
        head: &ElementHead<'a>,
        out: &mut Vec<T>,
    ) -> BxsaResult<()> {
        expect_kind(head, FrameType::Array)?;
        let len = self.c.array_of::<T>()?;
        match self.placed_here(len.checked_mul(T::WIDTH)) {
            Some(slot) => slot.take_into(out)?,
            None => self.c.r.read_packed_into(len, out)?,
        }
        self.close(head)
    }

    /// Read an opened array frame in place (and close the frame): the
    /// values are borrowed from the input when its byte order is the
    /// machine's and the payload sits at an address aligned for `T`,
    /// and copied out otherwise. Either way the frame gets exactly the
    /// checks [`read_array_into`](FieldReader::read_array_into) makes,
    /// and the same input gives the same values or the same error.
    pub fn read_array_view<T: Primitive>(
        &mut self,
        head: &ElementHead<'a>,
    ) -> BxsaResult<Cow<'a, [T]>> {
        expect_kind(head, FrameType::Array)?;
        let len = self.c.array_of::<T>()?;
        if let Some(slot) = self.placed_here(len.checked_mul(T::WIDTH)) {
            let mut values = Vec::new();
            slot.take_into(&mut values)?;
            self.close(head)?;
            return Ok(Cow::Owned(values));
        }
        let values = match self.c.r.read_packed_zero_copy(len)? {
            Some(view) => Cow::Borrowed(view),
            None => Cow::Owned(self.c.r.read_packed(len)?),
        };
        self.close(head)?;
        Ok(values)
    }
}

fn expect_kind(head: &ElementHead<'_>, kind: FrameType) -> BxsaResult<()> {
    if head.kind != kind {
        return Err(BxsaError::Structure {
            what: format!(
                "expected a {kind:?} frame for {:?}, found {:?}",
                head.local, head.kind
            ),
        });
    }
    Ok(())
}

fn mistyped(head: &ElementHead<'_>, found: LeafValue<'_>) -> BxsaError {
    BxsaError::BadValueType {
        offset: head.frame.body,
        what: format!("leaf {:?} holds {found:?}", head.local),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::{framed, plain_array_body_bound, plain_component_body_bound,
        plain_leaf_body_bound};
    use bxdm::{ArrayValue, AtomicValue, Document, Element};

    /// The tree equivalent of the typed message the tests write.
    fn tree_doc(values: &[f64], count: i64) -> Document {
        Document::with_root(
            Element::component("d:set")
                .with_namespace("d", "http://example.org/data")
                .with_child(Element::array("d:values", ArrayValue::F64(values.to_vec())))
                .with_child(Element::leaf("d:count", AtomicValue::I64(count))),
        )
    }

    fn typed_encode(values: &[f64], count: i64, order: ByteOrder, buf: &mut Vec<u8>) {
        let decls: &[TypedDecl] = &[(Some("d"), "http://example.org/data")];
        let arr_body = plain_array_body_bound("values", &[], TypeCode::F64, values.len());
        let leaf_body = plain_leaf_body_bound("count", &[], TypeCode::I64, 0);
        let root_body = plain_component_body_bound(
            "set",
            decls,
            2,
            framed(arr_body) + framed(leaf_body),
        );
        let mut w = FrameWriter::new(order);
        w.begin_document(buf, 1, FrameWriter::document_bound(root_body));
        w.begin_component(TypedName::new(Some("d"), "set"), decls, 2, root_body)
            .unwrap();
        w.array(TypedName::new(Some("d"), "values"), &[], values)
            .unwrap();
        w.leaf(TypedName::new(Some("d"), "count"), &[], count).unwrap();
        w.end_component().unwrap();
        w.finish_document(buf).unwrap();
    }

    #[test]
    fn typed_encode_is_byte_identical_to_tree_encode() {
        for order in [ByteOrder::Little, ByteOrder::Big] {
            for len in [0usize, 1, 3, 257] {
                let values: Vec<f64> = (0..len).map(|i| i as f64 * 0.5).collect();
                let doc = tree_doc(&values, len as i64);
                let tree = crate::encode_with(&doc, &crate::EncodeOptions { byte_order: order, ..Default::default() })
                    .unwrap();
                let mut typed = Vec::new();
                typed_encode(&values, len as i64, order, &mut typed);
                assert_eq!(typed, tree, "order {order:?} len {len}");
            }
        }
    }

    #[test]
    fn typed_encode_reuses_the_buffer() {
        let values: Vec<f64> = (0..256).map(f64::from).collect();
        let mut buf = Vec::new();
        typed_encode(&values, 256, ByteOrder::Little, &mut buf);
        let (cap, ptr) = (buf.capacity(), buf.as_ptr());
        typed_encode(&values, 256, ByteOrder::Little, &mut buf);
        assert_eq!(buf.capacity(), cap, "steady-state typed encode must not grow");
        assert_eq!(buf.as_ptr(), ptr, "steady-state typed encode must not reallocate");
    }

    #[test]
    fn field_reader_reads_back_typed_fields() {
        let values: Vec<f64> = (0..100).map(|i| i as f64 * 0.25).collect();
        // Read tree-encoded bytes: the reader must interoperate with the
        // generic encoder, not just its own writer.
        let bytes = crate::encode(&tree_doc(&values, 100)).unwrap();
        let mut r = FieldReader::new(&bytes).unwrap();
        assert_eq!(r.top_count(), 1);
        let set = r.open().unwrap();
        assert_eq!(set.local, "set");
        assert_eq!(set.kind, FrameType::Component);
        assert_eq!(set.child_count, 2);
        assert_eq!(set.attr_count, 0);
        let arr = r.open().unwrap();
        assert_eq!(arr.local, "values");
        let mut out = vec![9.9; 3];
        r.read_array_into::<f64>(&arr, &mut out).unwrap();
        assert_eq!(out, values);
        let leaf = r.open().unwrap();
        assert_eq!(r.read_value::<i64>(&leaf).unwrap(), 100);
        r.close(&set).unwrap();
    }

    #[test]
    fn field_reader_skips_unknown_frames() {
        let doc = Document::with_root(
            Element::component("r")
                .with_child(Element::leaf("ignored", AtomicValue::Str("x".into())))
                .with_child(Element::leaf("wanted", AtomicValue::I32(7))),
        );
        let bytes = crate::encode(&doc).unwrap();
        let mut r = FieldReader::new(&bytes).unwrap();
        let root = r.open().unwrap();
        let mut got = None;
        for _ in 0..root.child_count {
            let h = r.open().unwrap();
            if h.local == "wanted" {
                got = Some(r.read_value::<i32>(&h).unwrap());
            } else {
                r.skip(&h).unwrap();
            }
        }
        r.close(&root).unwrap();
        assert_eq!(got, Some(7));
    }

    #[test]
    fn field_reader_rejects_wrong_types_and_truncation() {
        let bytes = crate::encode(&tree_doc(&[1.0], 1)).unwrap();
        let mut r = FieldReader::new(&bytes).unwrap();
        let _set = r.open().unwrap();
        let arr = r.open().unwrap();
        let mut ints = Vec::new();
        assert!(matches!(
            r.read_array_into::<i32>(&arr, &mut ints),
            Err(BxsaError::BadValueType { .. })
        ));
        // Truncated input: every prefix must error, never panic.
        for cut in 0..bytes.len() {
            let mut r = match FieldReader::new(&bytes[..cut]) {
                Ok(r) => r,
                Err(_) => continue,
            };
            let mut out = Vec::new();
            let _ = r.open().and_then(|set| {
                let h = r.open()?;
                r.read_array_into::<f64>(&h, &mut out)?;
                let h = r.open()?;
                let _ = r.read_value::<i64>(&h)?;
                r.close(&set)
            });
        }
    }

    /// Read the `values` array of a document encoded by
    /// [`view_agrees_with_copy`] through the view (also reporting
    /// whether it borrowed) or through the copying read, then close and
    /// finish the document, checksum included.
    fn read_values<T: Primitive>(bytes: &[u8], view: bool) -> BxsaResult<(Vec<T>, bool)> {
        let mut r = FieldReader::new(bytes)?;
        let root = r.open()?;
        let arr = r.open()?;
        let read = if view {
            let values = r.read_array_view::<T>(&arr)?;
            let borrowed = matches!(values, Cow::Borrowed(_));
            (values.into_owned(), borrowed)
        } else {
            let mut out = Vec::new();
            r.read_array_into(&arr, &mut out)?;
            (out, false)
        };
        r.close(&root)?;
        r.finish()?;
        Ok(read)
    }

    /// The values' bytes, so NaN payloads compare bit for bit.
    fn bits<T: Primitive>(values: &[T]) -> Vec<u8> {
        let mut out = vec![0; values.len() * T::WIDTH];
        for (v, slot) in values.iter().zip(out.chunks_exact_mut(T::WIDTH)) {
            v.write_bytes(ByteOrder::Little, slot);
        }
        out
    }

    /// Encode `values` as the one array of a document, optionally flip
    /// one byte, place the document `shift` bytes past an 8-aligned
    /// address, and read the array both ways: the view and the copying
    /// read accept the same inputs with the same values or the same
    /// error, and the view borrows exactly when the order is native and
    /// the payload is aligned.
    fn view_agrees_with_copy<T: Primitive>(
        array: ArrayValue,
        len: usize,
        big: bool,
        shift: usize,
        checksum: bool,
        flip: Option<(usize, u8)>,
    ) -> Result<(), proptest::prelude::TestCaseError> {
        let byte_order = if big {
            ByteOrder::Big
        } else {
            ByteOrder::Little
        };
        let doc = Document::with_root(
            Element::component("r").with_child(Element::array("values", array)),
        );
        let opts = crate::EncodeOptions {
            byte_order,
            checksum,
        };
        let mut bytes = crate::encode_with(&doc, &opts).unwrap();
        if let Some((at, mask)) = flip {
            let i = at % bytes.len();
            bytes[i] ^= mask;
        }
        let mut buf = Vec::with_capacity(bytes.len() + 16);
        let pad = (8 - buf.as_ptr() as usize % 8) % 8 + shift;
        buf.resize(pad, 0);
        buf.extend_from_slice(&bytes);
        let placed = &buf[pad..];
        let copied = read_values::<T>(placed, false);
        let viewed = read_values::<T>(placed, true);
        if let (Ok((_, borrowed)), None) = (&viewed, flip) {
            let in_place = byte_order.is_native() && (shift.is_multiple_of(T::WIDTH) || len == 0);
            proptest::prop_assert_eq!(
                *borrowed,
                in_place,
                "shift {} order {:?}",
                shift,
                byte_order
            );
        }
        proptest::prop_assert_eq!(viewed.map(|(v, _)| bits(&v)), copied.map(|(v, _)| bits(&v)));
        Ok(())
    }

    macro_rules! view_matches_copy {
        ($($test:ident: $t:ty => $variant:ident),+ $(,)?) => {
            proptest::proptest! {
                $(
                    #[test]
                    fn $test(
                        values in proptest::collection::vec(proptest::prelude::any::<$t>(), 0..40),
                        big in proptest::prelude::any::<bool>(),
                        shift in 0usize..8,
                        checksum in proptest::prelude::any::<bool>(),
                        flip in proptest::option::of((
                            proptest::prelude::any::<usize>(),
                            1u8..=255,
                        )),
                    ) {
                        let len = values.len();
                        view_agrees_with_copy::<$t>(
                            ArrayValue::$variant(values), len, big, shift, checksum, flip,
                        )?;
                    }
                )+
            }
        };
    }

    view_matches_copy! {
        view_matches_copy_i8: i8 => I8,
        view_matches_copy_u8: u8 => U8,
        view_matches_copy_i16: i16 => I16,
        view_matches_copy_u16: u16 => U16,
        view_matches_copy_i32: i32 => I32,
        view_matches_copy_u32: u32 => U32,
        view_matches_copy_i64: i64 => I64,
        view_matches_copy_u64: u64 => U64,
        view_matches_copy_f32: f32 => F32,
        view_matches_copy_f64: f64 => F64,
    }

    mod gather {
        use super::*;
        use proptest::prelude::*;

        /// A typed message: what a `ToBxsa` encoder hands the writer.
        #[derive(Debug, Clone)]
        enum Shape {
            Array(ArrayValue),
            Leaf(i64),
            Text(String),
            Component { ns: bool, children: Vec<Shape> },
        }

        const DECLS: &[TypedDecl] = &[(Some("p"), "urn:p")];

        fn decls(ns: bool) -> &'static [TypedDecl] {
            if ns {
                DECLS
            } else {
                &[]
            }
        }

        fn bound(shape: &Shape) -> usize {
            match shape {
                Shape::Array(a) => plain_array_body_bound("a", &[], a.type_code(), a.len()),
                Shape::Leaf(_) => plain_leaf_body_bound("n", &[], TypeCode::I64, 0),
                Shape::Text(t) => plain_leaf_body_bound("s", &[], TypeCode::Str, t.len()),
                Shape::Component { ns, children } => plain_component_body_bound(
                    "c",
                    decls(*ns),
                    children.len(),
                    children.iter().map(|c| framed(bound(c))).sum(),
                ),
            }
        }

        fn write(w: &mut FrameWriter<'_>, shape: &Shape) -> BxsaResult<()> {
            let name = |local| TypedName::new(None, local);
            match shape {
                Shape::Array(a) => match a {
                    ArrayValue::I8(v) => w.array(name("a"), &[], v),
                    ArrayValue::U8(v) => w.array(name("a"), &[], v),
                    ArrayValue::I16(v) => w.array(name("a"), &[], v),
                    ArrayValue::U16(v) => w.array(name("a"), &[], v),
                    ArrayValue::I32(v) => w.array(name("a"), &[], v),
                    ArrayValue::U32(v) => w.array(name("a"), &[], v),
                    ArrayValue::I64(v) => w.array(name("a"), &[], v),
                    ArrayValue::U64(v) => w.array(name("a"), &[], v),
                    ArrayValue::F32(v) => w.array(name("a"), &[], v),
                    ArrayValue::F64(v) => w.array(name("a"), &[], v),
                },
                Shape::Leaf(v) => w.leaf(name("n"), &[], *v),
                Shape::Text(t) => w.leaf_str(name("s"), &[], t),
                Shape::Component { ns, children } => {
                    let c = if *ns {
                        TypedName::new(Some("p"), "c")
                    } else {
                        name("c")
                    };
                    w.begin_component(c, decls(*ns), children.len(), bound(shape))?;
                    for child in children {
                        write(w, child)?;
                    }
                    w.end_component()
                }
            }
        }

        /// One message into `buf` through `w`, in whatever mode `w` is.
        fn encode(w: &mut FrameWriter<'_>, root: &Shape, buf: &mut Vec<u8>) {
            w.begin_document(buf, 1, FrameWriter::document_bound(bound(root)));
            write(w, root).unwrap();
            w.finish_document(buf).unwrap();
        }

        /// Both passes of a gathered encode: the pieces the sink got,
        /// concatenated, and how many arrays pass 1 left out.
        fn gathered(
            w: &mut FrameWriter<'_>,
            root: &Shape,
            replayed: &Shape,
        ) -> BxsaResult<(Vec<u8>, usize)> {
            let mut head = Vec::new();
            w.set_gather(true);
            encode(w, root, &mut head);
            w.set_gather(false);
            let mut wire = Vec::new();
            let mut pieces = 0;
            let mut sink = |h: &[u8], payload: &[u8]| {
                wire.extend_from_slice(h);
                wire.extend_from_slice(payload);
                pieces += 1;
            };
            let mut replay = w.replay(&head, &mut sink);
            write(&mut replay, replayed)?;
            replay.finish_replay()?;
            assert!(
                pieces >= w.deferred_arrays(),
                "each left-out array is a piece"
            );
            assert_eq!(wire.len(), head.len() + w.deferred_bytes());
            Ok((wire, w.deferred_arrays()))
        }

        /// Counts around the 4 KiB threshold for an element width.
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

        fn arb_shape() -> impl Strategy<Value = Shape> {
            let leaf_like = prop_oneof![
                3 => (0u8..10, 0usize..7, any::<u64>())
                    .prop_map(|(kind, pick, seed)| Shape::Array(array_value(kind, pick, seed))),
                1 => any::<i64>().prop_map(Shape::Leaf),
                1 => "[a-z]{0,9}".prop_map(Shape::Text),
            ];
            leaf_like.prop_recursive(3, 24, 4, |inner| {
                (proptest::collection::vec(inner, 0..5), any::<bool>())
                    .prop_map(|(children, ns)| Shape::Component { ns, children })
            })
        }

        fn foreign() -> ByteOrder {
            match ByteOrder::native() {
                ByteOrder::Little => ByteOrder::Big,
                ByteOrder::Big => ByteOrder::Little,
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]
            /// The two passes, concatenated, are the flat encode's bytes:
            /// every array type, counts around the threshold, nested
            /// components, both byte orders, checksum on and off. Nothing
            /// is left out on a foreign order or with a checksum.
            #[test]
            fn gathered_typed_encode_equals_the_flat_encode(
                root in arb_shape(),
                native in any::<bool>(),
                checksum in any::<bool>(),
            ) {
                let root = Shape::Component { ns: true, children: vec![root] };
                let order = if native { ByteOrder::native() } else { foreign() };
                let mut w = FrameWriter::new(order);
                w.set_checksum(checksum);
                let mut flat = Vec::new();
                encode(&mut w, &root, &mut flat);
                let (wire, left_out) = gathered(&mut w, &root, &root).unwrap();
                prop_assert_eq!(&wire, &flat);
                if !native || checksum {
                    prop_assert_eq!(left_out, 0);
                }
            }
        }

        /// Everything a schema-free typed decode reads from `r`: each
        /// array's bytes (read with the typed reader of its own type, or
        /// skipped where `skip` has the array's bit set), each leaf value
        /// and text, in document order; then the document's end.
        fn read_all(r: &mut FieldReader<'_>, skip: u64) -> BxsaResult<Vec<Vec<u8>>> {
            fn read<'a, T: Primitive>(
                r: &mut FieldReader<'a>,
                h: &ElementHead<'a>,
            ) -> BxsaResult<Vec<u8>> {
                let mut out = Vec::new();
                r.read_array_into::<T>(h, &mut out)?;
                Ok(bits(&out))
            }
            fn walk<'a>(
                r: &mut FieldReader<'a>,
                h: &ElementHead<'a>,
                skip: u64,
                seen: &mut Vec<Vec<u8>>,
            ) -> BxsaResult<()> {
                match h.kind {
                    FrameType::Component => {
                        for _ in 0..h.child_count {
                            let c = r.open()?;
                            walk(r, &c, skip, seen)?;
                        }
                        r.close(h)
                    }
                    FrameType::Array if skip >> (seen.len() % 64) & 1 == 1 => {
                        seen.push(Vec::new());
                        r.skip(h)
                    }
                    FrameType::Array => {
                        let values = if r.is_array_of::<i8>(h) {
                            read::<i8>(r, h)
                        } else if r.is_array_of::<u8>(h) {
                            read::<u8>(r, h)
                        } else if r.is_array_of::<i16>(h) {
                            read::<i16>(r, h)
                        } else if r.is_array_of::<u16>(h) {
                            read::<u16>(r, h)
                        } else if r.is_array_of::<i32>(h) {
                            read::<i32>(r, h)
                        } else if r.is_array_of::<u32>(h) {
                            read::<u32>(r, h)
                        } else if r.is_array_of::<i64>(h) {
                            read::<i64>(r, h)
                        } else if r.is_array_of::<u64>(h) {
                            read::<u64>(r, h)
                        } else if r.is_array_of::<f32>(h) {
                            read::<f32>(r, h)
                        } else {
                            read::<f64>(r, h)
                        }?;
                        seen.push(values);
                        Ok(())
                    }
                    FrameType::Leaf => {
                        seen.push(format!("{:?}", r.read_leaf(h)?).into_bytes());
                        Ok(())
                    }
                    _ => r.skip(h),
                }
            }
            let mut seen = Vec::new();
            for _ in 0..r.top_count() {
                let h = r.open()?;
                walk(r, &h, skip, &mut seen)?;
            }
            r.finish()?;
            Ok(seen)
        }

        /// Receive `bytes` into `s` in reads whose sizes cycle through
        /// `splits`.
        fn receive(s: &mut crate::Scatter, bytes: &[u8], splits: &[usize]) {
            s.begin(bytes.len());
            let (mut from, mut i) = (0, 0);
            loop {
                let buf = s.next_buf(1 << 20);
                if buf.is_empty() {
                    break;
                }
                let n = buf.len().min(splits[i % splits.len()]);
                i += 1;
                buf[..n].copy_from_slice(&bytes[from..from + n]);
                from += n;
                s.filled(n);
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(384))]
            /// A document received with its large arrays placed reads as
            /// the flat bytes read: the same values, or on damaged input an
            /// error of the same kind. Every array type, counts around the
            /// 4 KiB mark, nested components, arrays before the body (a
            /// header), both byte orders, checksum on and off, any read
            /// splits, arrays read or skipped.
            #[test]
            fn scattered_read_equals_the_flat_read(
                header in arb_shape(),
                body in arb_shape(),
                native in any::<bool>(),
                checksum in any::<bool>(),
                splits in proptest::collection::vec(1usize..6000, 1..6),
                skip in any::<u64>(),
                flip in proptest::option::of((any::<usize>(), 1u8..=255)),
            ) {
                let root = Shape::Component {
                    ns: true,
                    children: vec![Shape::Component { ns: false, children: vec![header] }, body],
                };
                let order = if native { ByteOrder::native() } else { foreign() };
                let mut w = FrameWriter::new(order);
                w.set_checksum(checksum);
                let mut bytes = Vec::new();
                encode(&mut w, &root, &mut bytes);
                if let Some((at, mask)) = flip {
                    let i = at % bytes.len();
                    bytes[i] ^= mask;
                }
                let flat = FieldReader::new(&bytes).and_then(|mut r| read_all(&mut r, skip));
                let mut s = crate::Scatter::new();
                receive(&mut s, &bytes, &splits);
                let placed = s.placed_bytes();
                if !native || checksum {
                    prop_assert_eq!(placed, 0);
                }
                let scattered = s.reader().and_then(|mut r| read_all(&mut r, skip));
                match (&flat, &scattered) {
                    (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
                    (Err(a), Err(b)) => prop_assert_eq!(
                        std::mem::discriminant(a),
                        std::mem::discriminant(b),
                        "{:?} vs {:?}", a, b
                    ),
                    _ => prop_assert!(false, "flat {:?} vs scattered {:?} ({} placed)", flat, scattered, placed),
                }
                prop_assert_eq!(s.flatten().len(), bytes.len());
            }
        }

        fn pair(index: Vec<i32>, values: Vec<f64>) -> Shape {
            Shape::Component {
                ns: false,
                children: vec![
                    Shape::Array(ArrayValue::I32(index)),
                    Shape::Array(ArrayValue::F64(values)),
                ],
            }
        }

        /// A replay whose arrays differ from pass 1 in type, size, order
        /// or number is an error, never bytes that frame wrongly.
        #[test]
        fn a_replay_that_differs_from_pass_one_is_an_error() {
            let n = 2048;
            let root = pair(vec![7; n], vec![0.5; n]);
            let mut w = FrameWriter::new(ByteOrder::native());
            let (_, left_out) = gathered(&mut w, &root, &root).unwrap();
            assert_eq!(left_out, 2);
            let longer = pair(vec![7; n + 1], vec![0.5; n]);
            let shorter = pair(vec![7; n], vec![0.5; n - 1]);
            let swapped = Shape::Component {
                ns: false,
                children: vec![
                    Shape::Array(ArrayValue::F64(vec![0.5; n])),
                    Shape::Array(ArrayValue::I32(vec![7; n])),
                ],
            };
            // Same payload size as the f64 array, another type.
            let retyped = Shape::Component {
                ns: false,
                children: vec![
                    Shape::Array(ArrayValue::I32(vec![7; n])),
                    Shape::Array(ArrayValue::I64(vec![1; n])),
                ],
            };
            let missing = Shape::Component {
                ns: false,
                children: vec![Shape::Array(ArrayValue::I32(vec![7; n]))],
            };
            for replayed in [&longer, &shorter, &swapped, &retyped, &missing] {
                let err = gathered(&mut w, &root, replayed).unwrap_err();
                assert!(
                    matches!(err, BxsaError::Structure { .. }),
                    "{replayed:?}: {err:?}"
                );
            }
        }

        /// A replay error hands the sink nothing past the array it
        /// refused: no piece of a wrong frame goes out.
        #[test]
        fn a_refused_array_is_never_sent() {
            let n = 2048;
            let root = pair(vec![7; n], vec![0.5; n]);
            let mut w = FrameWriter::new(ByteOrder::native());
            let mut head = Vec::new();
            w.set_gather(true);
            encode(&mut w, &root, &mut head);
            let mut sent = Vec::new();
            let mut sink = |h: &[u8], p: &[u8]| sent.push((h.len(), p.len()));
            let mut replay = w.replay(&head, &mut sink);
            let bad = pair(vec![7; n], vec![0.5; n + 1]);
            assert!(write(&mut replay, &bad).is_err());
            drop(replay);
            assert_eq!(
                sent.len(),
                1,
                "only the index array, which matched, went out"
            );
            assert_eq!(sent[0].1, n * 4);
        }
    }

    /// Walk every top-level frame with `skip` alone, then `finish`.
    fn skim(bytes: &[u8]) -> BxsaResult<()> {
        let mut r = FieldReader::new(bytes)?;
        for _ in 0..r.top_count() {
            let head = r.open()?;
            r.skip(&head)?;
        }
        r.finish()
    }

    #[test]
    fn skipping_accepts_exactly_what_the_tree_decoder_accepts() {
        let mut mid = Element::component("b:mid")
            .with_namespace("b", "http://b")
            .with_child(Element::leaf("a:flag", AtomicValue::Bool(true)))
            .with_child(Element::array("b:v", ArrayValue::F64(vec![1.0, -2.5])))
            .with_text("note")
            .with_comment("c");
        mid.push_node(bxdm::Node::Pi {
            target: "pi".into(),
            data: "d".into(),
        });
        let doc = Document::with_root(
            Element::component("a:r")
                .with_namespace("a", "http://a")
                .with_attr("a:id", "7")
                .with_child(mid)
                .with_child(Element::leaf("s", AtomicValue::Str("x".into()))),
        );
        let bytes = crate::encode(&doc).unwrap();
        skim(&bytes).unwrap();
        for at in 0..bytes.len() {
            for mask in [0x01, 0x02, 0x80] {
                let mut damaged = bytes.clone();
                damaged[at] ^= mask;
                assert_eq!(
                    skim(&damaged).is_ok(),
                    crate::decode(&damaged).is_ok(),
                    "byte {at} ^ {mask:#04x}"
                );
            }
        }
    }

    #[test]
    fn view_refuses_a_mistyped_array_like_the_copy() {
        let bytes = crate::encode(&tree_doc(&[1.0, 2.0], 2)).unwrap();
        let mut r = FieldReader::new(&bytes).unwrap();
        let _set = r.open().unwrap();
        let arr = r.open().unwrap();
        let mut ints = Vec::new();
        assert_eq!(
            r.clone().read_array_view::<i32>(&arr).unwrap_err(),
            r.clone().read_array_into::<i32>(&arr, &mut ints).unwrap_err()
        );
        // A leaf is no array.
        r.skip(&arr).unwrap();
        let leaf = r.open().unwrap();
        assert!(matches!(
            r.read_array_view::<i64>(&leaf),
            Err(BxsaError::Structure { .. })
        ));
    }

    #[test]
    fn writer_reports_structural_misuse() {
        let mut w = FrameWriter::new(ByteOrder::Little);
        let mut buf = Vec::new();
        w.begin_document(&mut buf, 1, 64);
        w.begin_component(TypedName::new(None, "r"), &[], 0, 32).unwrap();
        assert!(matches!(
            w.finish_document(&mut buf),
            Err(BxsaError::Structure { .. })
        ));
        // Undeclared prefix is the same error the tree encoder raises.
        let mut w = FrameWriter::new(ByteOrder::Little);
        w.begin_document(&mut buf, 1, 64);
        assert!(matches!(
            w.begin_component(TypedName::new(Some("nope"), "r"), &[], 0, 32),
            Err(BxsaError::UndeclaredPrefix { .. })
        ));
    }
}
