//! The BXSA frame core (paper Figure 2): the common prefix, the size
//! field, the element header, typed values and packed arrays.
//!
//! Every reader in the crate parses frames through `Cursor` and every
//! writer emits them through `Out`, so the grammar and its checks live
//! in this one module. See DESIGN.md, "One frame core".
//!
//! Bit layout of the prefix byte: the two high bits are the byte-order
//! code ("BO" in Figure 2), the low six bits are the frame-type code.

use bxdm::namespace::NsRef;
use bxdm::{ArrayValue, NamespaceDecl};
use xbs::{ByteOrder, Primitive, TypeCode, XbsError, XbsReader, XbsWriter};

use crate::error::{BxsaError, BxsaResult};
use crate::estimate::size_field_len;
use crate::pull::{LeafValue, PullEvent};
use crate::wellformed::{check_comment, check_name, check_pi};

/// The deepest frame nesting every reader accepts. A top-level frame (a
/// document's child, or a standalone part) is at depth 1; a frame one
/// level deeper than this is a typed error. Guards the recursive tree
/// decoder against stack exhaustion on adversarial input.
pub const MAX_DEPTH: usize = 256;

/// The most arrays one gathering encode
/// ([`encode_parts_into`](crate::encode_parts_into)) leaves in the
/// document; later ones are copied. A gather write then takes at most
/// `2 * MAX_REFS + 1` slices, well under any `IOV_MAX`.
pub const MAX_REFS: usize = 64;

/// The smallest array payload a gathering encode leaves in place. A
/// smaller array costs less to copy than a slice of its own in the
/// gather write.
pub(crate) const MIN_REF_BYTES: usize = 4096;

/// The kinds of frames a BXSA document is built from.
///
/// The paper deliberately makes the frame granularity *coarser* than the
/// node granularity: attributes and namespace declarations are fields of
/// their owning element frame, not frames of their own, to avoid the
/// encoding overhead of numerous tiny frames (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum FrameType {
    /// The document node; contains a count and the top-level frames.
    Document = 0x01,
    /// A general element with child frames ("Component Element Frame").
    Component = 0x02,
    /// An element with one typed atomic value ("Leaf Element Frame").
    Leaf = 0x03,
    /// An element with a packed homogeneous array ("Array Element Frame").
    Array = 0x04,
    /// Character data in mixed content.
    CharData = 0x05,
    /// A comment (same structure as CharData, different type code).
    Comment = 0x06,
    /// A processing instruction.
    Pi = 0x07,
    /// An integrity checksum covering the immediately preceding frame.
    ///
    /// Trailing placement (after the frame it covers, never before)
    /// keeps document and part frames at buffer offset 0, which the
    /// packed-array alignment rules depend on, and lets encoders append
    /// the checksum without backpatching. Body layout after the common
    /// prefix + padded-VLS size: 1 algorithm byte (0x01 = CRC32C), then
    /// the 4-byte CRC stored in the frame's declared byte order. The CRC
    /// covers every byte of the preceding frame, prefix included.
    Checksum = 0x08,
}

impl FrameType {
    /// Decode the low six bits of a prefix byte.
    pub fn from_code(code: u8, offset: usize) -> BxsaResult<FrameType> {
        Ok(match code {
            0x01 => FrameType::Document,
            0x02 => FrameType::Component,
            0x03 => FrameType::Leaf,
            0x04 => FrameType::Array,
            0x05 => FrameType::CharData,
            0x06 => FrameType::Comment,
            0x07 => FrameType::Pi,
            0x08 => FrameType::Checksum,
            _ => return Err(BxsaError::BadFrameType { offset, code }),
        })
    }

    /// `true` for the three element frame kinds.
    pub fn is_element(self) -> bool {
        matches!(
            self,
            FrameType::Component | FrameType::Leaf | FrameType::Array
        )
    }
}

/// Total wire size of a checksum frame as this crate emits it: prefix
/// byte, 1-byte padded-VLS size, algorithm byte, 4-byte CRC.
pub(crate) const CHECKSUM_FRAME_LEN: usize = 7;

/// Algorithm byte for CRC32C — the only algorithm currently assigned.
const CHECKSUM_ALG_CRC32C: u8 = 0x01;

/// Pack a prefix byte from byte order and frame type.
#[inline]
pub fn prefix_byte(order: ByteOrder, frame_type: FrameType) -> u8 {
    (order.code() << 6) | (frame_type as u8)
}

/// Unpack a prefix byte.
pub fn parse_prefix(byte: u8, offset: usize) -> BxsaResult<(ByteOrder, FrameType)> {
    let order = ByteOrder::from_code(byte >> 6).ok_or(BxsaError::BadByteOrder {
        offset,
        code: byte >> 6,
    })?;
    let frame_type = FrameType::from_code(byte & 0x3f, offset)?;
    Ok((order, frame_type))
}

/// A frame as its prefix and size field declare it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Frame {
    pub kind: FrameType,
    pub order: ByteOrder,
    pub start: usize,
    /// Offset of the first body byte (after prefix and size field).
    pub body: usize,
    /// Offset one past the last byte: `start` plus the declared size.
    pub end: usize,
}

/// Parse the prefix and size field of the frame at `buf[start]`. The end
/// is overflow-checked, never before the body and never past the end of
/// `buf`; a buffer ending inside the size field is an `UnexpectedEof`
/// error.
pub(crate) fn frame_in(buf: &[u8], start: usize) -> BxsaResult<Frame> {
    frame_at(buf.get(start..).unwrap_or_default(), start, buf.len())
}

/// [`frame_in`] for the frame at stream offset `start`, whose first bytes
/// are `bytes`, in a stream that ends at `stream_end`.
fn frame_at(bytes: &[u8], start: usize, stream_end: usize) -> BxsaResult<Frame> {
    let byte = *bytes.first().ok_or(XbsError::UnexpectedEof {
        offset: start,
        needed: 1,
    })?;
    let (order, kind) = parse_prefix(byte, start)?;
    let (size, used) = xbs::vls::read_vls_padded(&bytes[1..], start + 1)?;
    let body = start + 1 + used;
    let end = usize::try_from(size)
        .ok()
        .and_then(|size| start.checked_add(size))
        .filter(|&end| end >= body)
        .ok_or_else(|| BxsaError::Structure {
            what: format!("frame at offset {start} declares impossible size {size}"),
        })?;
    if end > stream_end {
        return Err(BxsaError::Structure {
            what: format!("frame at offset {start} declares size {size} past buffer end"),
        });
    }
    Ok(Frame {
        kind,
        order,
        start,
        body,
        end,
    })
}

/// `true` when the byte at `at` is a checksum frame's prefix.
pub(crate) fn is_checksum_at(buf: &[u8], at: usize) -> bool {
    buf.get(at)
        .is_some_and(|&b| matches!(parse_prefix(b, at), Ok((_, FrameType::Checksum))))
}

/// Parse and verify the checksum frame at `at`, whose CRC must cover
/// `buf[..at]`. Returns the frame's end offset.
///
/// Any malformation is a typed error — a corrupt checksum frame must
/// never be silently skipped, or it would defeat the integrity check it
/// exists to provide.
pub(crate) fn verify_checksum_frame(buf: &[u8], at: usize) -> BxsaResult<usize> {
    let frame = frame_in(buf, at)?;
    if frame.kind != FrameType::Checksum || at == 0 {
        return Err(BxsaError::Structure {
            what: format!("no checksum frame covering a preceding frame at offset {at}"),
        });
    }
    // Raw unaligned CRC — see `Out::checksum` for why it is not an
    // aligned scalar field.
    let &[alg, a, b, c, d] = &buf[frame.body..frame.end] else {
        return Err(BxsaError::FrameSizeMismatch {
            offset: at,
            declared: (frame.end - at) as u64,
            consumed: CHECKSUM_FRAME_LEN as u64,
        });
    };
    if alg != CHECKSUM_ALG_CRC32C {
        return Err(BxsaError::Structure {
            what: format!("unknown checksum algorithm {alg:#04x} at offset {at}"),
        });
    }
    let stored = match frame.order {
        ByteOrder::Little => u32::from_le_bytes([a, b, c, d]),
        ByteOrder::Big => u32::from_be_bytes([a, b, c, d]),
    };
    let computed = crate::crc32c::crc32c(&buf[..at]);
    if stored != computed {
        return Err(BxsaError::ChecksumMismatch {
            offset: at,
            stored,
            computed,
        });
    }
    Ok(frame.end)
}

/// A tokenized element or attribute name as read off the wire: the
/// namespace reference (unresolved) and the checked local name.
pub(crate) struct Name<'a> {
    ns: Option<NsRef>,
    at: usize,
    pub local: &'a str,
}

impl Name<'_> {
    /// The prefix the reference resolves to through `lookup` (the
    /// reader's scope chain); a dangling reference is a typed error.
    pub fn resolve<'d>(
        &self,
        lookup: impl FnOnce(NsRef) -> Option<&'d NamespaceDecl>,
    ) -> BxsaResult<Option<&'d str>> {
        let Some(r) = self.ns else { return Ok(None) };
        let decl = lookup(r).ok_or(BxsaError::BadNamespaceRef { offset: self.at })?;
        Ok(decl.prefix.as_deref())
    }

    /// Check that the reference would resolve, given the namespace-table
    /// sizes of the open elements, outermost first (`ScopeChain`'s rule:
    /// scope depth 0 is the innermost element).
    fn check(&self, open: &[u32]) -> BxsaResult<()> {
        let Some(r) = self.ns else { return Ok(()) };
        match open.len().checked_sub(r.scope_depth as usize + 1) {
            Some(scope) if r.index < open[scope] => Ok(()),
            _ => Err(BxsaError::BadNamespaceRef { offset: self.at }),
        }
    }
}

/// The namespace-table size of each open element, by depth: what a reader
/// that keeps no tables needs to check that name references resolve.
pub(crate) type Scopes = [u32; MAX_DEPTH];

/// The frame-reading core: one cursor under the tree decoder, the pull
/// reader, the typed field reader and the scanner.
///
/// It owns prefix and size parsing, the frame-end and document-end
/// checks with the optional checksum trailer, the nesting limit, the
/// element-header fields, typed values and the packed-array head. Every
/// [`open`](Cursor::open) must be matched by one
/// [`close`](Cursor::close) or [`skip`](Cursor::skip).
#[derive(Clone)]
pub(crate) struct Cursor<'a> {
    pub r: XbsReader<'a>,
    depth: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor::over(XbsReader::new(buf, ByteOrder::Little), 0)
    }

    /// A cursor reading with `r` (a reader over a stream with gaps, say)
    /// inside `depth` open element frames.
    pub fn over(r: XbsReader<'a>, depth: usize) -> Cursor<'a> {
        Cursor { r, depth }
    }

    fn head(&mut self) -> BxsaResult<Frame> {
        let start = self.r.position();
        let frame = frame_at(self.r.unread(), start, start + self.r.remaining()).map_err(|e| {
            // Cut short by a gap, not by the end of the stream.
            match e {
                BxsaError::Xbs(XbsError::UnexpectedEof { .. })
                    if self.r.remaining() > self.r.unread().len() =>
                {
                    BxsaError::Xbs(XbsError::Gap { offset: start })
                }
                e => e,
            }
        })?;
        self.r.set_order(frame.order);
        self.r.seek(frame.body)?;
        Ok(frame)
    }

    /// Open the document frame and read its top-level frame count.
    pub fn document(&mut self) -> BxsaResult<(Frame, usize)> {
        let doc = self.head()?;
        if doc.kind != FrameType::Document {
            return Err(BxsaError::Structure {
                what: format!("expected a document frame, found {:?}", doc.kind),
            });
        }
        Ok((doc, self.r.read_count(1)?))
    }

    /// Open the next frame inside a container (or a standalone part):
    /// depth-checked, and never a document or checksum frame.
    pub fn open(&mut self) -> BxsaResult<Frame> {
        if self.depth >= MAX_DEPTH {
            return Err(BxsaError::Structure {
                what: format!("frame nesting exceeds MAX_DEPTH {MAX_DEPTH}"),
            });
        }
        let frame = self.head()?;
        match frame.kind {
            FrameType::Document => Err(BxsaError::Structure {
                what: "nested document frame".into(),
            }),
            // Checksum frames are only valid trailing a top-level frame
            // (see `finish`).
            FrameType::Checksum => Err(BxsaError::Structure {
                what: format!(
                    "checksum frame at offset {} inside a container frame",
                    frame.start
                ),
            }),
            _ => {
                self.depth += 1;
                Ok(frame)
            }
        }
    }

    fn check_end(&self, frame: &Frame) -> BxsaResult<()> {
        let at = self.r.position();
        if at != frame.end {
            return Err(BxsaError::FrameSizeMismatch {
                offset: frame.start,
                declared: (frame.end - frame.start) as u64,
                consumed: at.saturating_sub(frame.start) as u64,
            });
        }
        Ok(())
    }

    /// Leave an opened frame whose body must have ended exactly at its
    /// declared size.
    pub fn close(&mut self, frame: &Frame) -> BxsaResult<()> {
        self.check_end(frame)?;
        self.depth = self.depth.saturating_sub(1);
        Ok(())
    }

    /// Leave an opened frame by jumping to its end, unparsed.
    pub fn skip(&mut self, frame: &Frame) -> BxsaResult<()> {
        self.r.seek(frame.end)?;
        self.depth = self.depth.saturating_sub(1);
        Ok(())
    }

    /// End of input after the top-level frame: the document frame (when
    /// given) must end here, and the input must then either end or carry
    /// exactly one checksum frame covering everything before it.
    pub fn finish(&mut self, doc: Option<&Frame>) -> BxsaResult<()> {
        if let Some(doc) = doc {
            self.check_end(doc)?;
        }
        let at = self.r.position();
        if self
            .r
            .unread()
            .first()
            .is_some_and(|&b| is_checksum_at(&[b], 0))
        {
            // A checksum covers the stream whole; a reader that passed
            // gaps holds only part of it.
            if at != self.r.buffer().len() - self.r.unread().len() {
                return Err(BxsaError::Structure {
                    what: format!("checksum frame at offset {at} after bytes held out of line"),
                });
            }
            let end = verify_checksum_frame(self.r.buffer(), at)?;
            self.r.seek(end)?;
        }
        if !self.r.is_at_end() {
            return Err(BxsaError::Structure {
                what: format!(
                    "{} trailing byte(s) after the top-level frame",
                    self.r.remaining()
                ),
            });
        }
        Ok(())
    }

    /// Element header: the length of the namespace symbol table.
    pub fn decls(&mut self) -> BxsaResult<usize> {
        Ok(self.r.read_count(2)?)
    }

    /// One symbol-table entry: `(prefix, uri)`, `None` prefix for the
    /// default namespace (an empty prefix string on the wire).
    pub fn decl(&mut self) -> BxsaResult<(Option<&'a str>, &'a str)> {
        let prefix = self.r.read_str()?;
        let uri = self.r.read_str()?;
        if prefix.is_empty() {
            return Ok((None, uri));
        }
        check_name("namespace prefix", prefix)?;
        Ok((Some(prefix), uri))
    }

    /// A namespace reference (VLS 0 for none, else VLS(scope depth + 1)
    /// and VLS(index)) followed by the local name.
    pub fn name(&mut self) -> BxsaResult<Name<'a>> {
        let at = self.r.position();
        let bad = |_| BxsaError::BadNamespaceRef { offset: at };
        let ns = match self.r.read_vls()? {
            0 => None,
            tag => Some(NsRef {
                scope_depth: u32::try_from(tag - 1).map_err(bad)?,
                index: u32::try_from(self.r.read_vls()?).map_err(bad)?,
            }),
        };
        let local = self.r.read_str()?;
        check_name("local name", local)?;
        Ok(Name { ns, at, local })
    }

    /// Element header: the attribute count (each attribute is a
    /// [`name`](Cursor::name) and a [`value`](Cursor::value)).
    pub fn attrs(&mut self) -> BxsaResult<usize> {
        Ok(self.r.read_count(3)?)
    }

    /// A component's child-frame count.
    pub fn children(&mut self) -> BxsaResult<usize> {
        Ok(self.r.read_count(1)?)
    }

    /// A whole element header with every field checked: the local name
    /// and the attribute count. With `scopes`, this element's table size
    /// is recorded there and every name reference must resolve as the
    /// tree decoder resolves it; without, references go unresolved (the
    /// scanner reads frames out of context).
    pub fn header(&mut self, scopes: Option<&mut Scopes>) -> BxsaResult<(&'a str, usize)> {
        let decls = self.decls()?;
        for _ in 0..decls {
            self.decl()?;
        }
        let depth = self.depth;
        let open = scopes.map(|scopes| {
            scopes[depth - 1] = u32::try_from(decls).unwrap_or(u32::MAX);
            &scopes[..depth]
        });
        let check = |name: Name<'a>| match open {
            Some(open) => name.check(open).map(|()| name.local),
            None => Ok(name.local),
        };
        let local = check(self.name()?)?;
        let attrs = self.attrs()?;
        for _ in 0..attrs {
            check(self.name()?)?;
            self.value()?;
        }
        Ok((local, attrs))
    }

    fn code(&mut self) -> BxsaResult<TypeCode> {
        let at = self.r.position();
        Ok(TypeCode::from_byte(self.r.read_raw_u8()?, at)?)
    }

    /// A typed atomic value: type code, then the value.
    pub fn value(&mut self) -> BxsaResult<LeafValue<'a>> {
        let at = self.r.position();
        Ok(match self.code()? {
            TypeCode::I8 => LeafValue::I8(self.r.read_i8()?),
            TypeCode::U8 => LeafValue::U8(self.r.read_u8()?),
            TypeCode::I16 => LeafValue::I16(self.r.read_i16()?),
            TypeCode::U16 => LeafValue::U16(self.r.read_u16()?),
            TypeCode::I32 => LeafValue::I32(self.r.read_i32()?),
            TypeCode::U32 => LeafValue::U32(self.r.read_u32()?),
            TypeCode::I64 => LeafValue::I64(self.r.read_i64()?),
            TypeCode::U64 => LeafValue::U64(self.r.read_u64()?),
            TypeCode::F32 => LeafValue::F32(self.r.read_f32()?),
            TypeCode::F64 => LeafValue::F64(self.r.read_f64()?),
            TypeCode::Str => LeafValue::Str(self.r.read_str()?),
            TypeCode::Bool => match self.r.read_raw_u8()? {
                b @ (0 | 1) => LeafValue::Bool(b == 1),
                b => {
                    return Err(BxsaError::BadValueType {
                        offset: at,
                        what: format!("boolean byte {b:#04x}"),
                    })
                }
            },
        })
    }

    fn expect_code(&mut self, want: TypeCode) -> BxsaResult<()> {
        let at = self.r.position();
        let code = self.code()?;
        if code != want {
            return Err(BxsaError::BadValueType {
                offset: at,
                what: format!("expected {want:?}, found {code:?}"),
            });
        }
        Ok(())
    }

    /// A fixed-width atomic value whose type code must be `T`'s.
    pub fn scalar<T: Primitive>(&mut self) -> BxsaResult<T> {
        self.expect_code(T::TYPE_CODE)?;
        Ok(self.r.read::<T>()?)
    }

    /// The head of a packed array: element type and count. Leaves the
    /// cursor at the payload, past its (checked) alignment padding.
    pub fn array_head(&mut self) -> BxsaResult<(TypeCode, usize)> {
        let at = self.r.position();
        let code = self.code()?;
        let width = match code {
            TypeCode::Str | TypeCode::Bool => None,
            numeric => numeric.width(),
        };
        let Some(width) = width else {
            return Err(BxsaError::BadValueType {
                offset: at,
                what: format!("{code:?} is not a valid array element type"),
            });
        };
        let len = self.r.read_count(width)?;
        self.r.align(width)?;
        Ok((code, len))
    }

    /// Read past a packed array: its head, then its payload, unread.
    pub fn skip_array(&mut self) -> BxsaResult<()> {
        let (code, len) = self.array_head()?;
        let width = code.width().expect("array heads are fixed-width");
        self.r.skip_run(len * width)?;
        Ok(())
    }

    /// [`array_head`](Cursor::array_head) of an array whose element type
    /// must be `T`; returns the count.
    pub fn array_of<T: Primitive>(&mut self) -> BxsaResult<usize> {
        self.expect_code(T::TYPE_CODE)?;
        let len = self.r.read_count(T::WIDTH)?;
        self.r.align(T::WIDTH)?;
        Ok(len)
    }

    /// The body of a character-data, comment or PI frame, checked
    /// against XML's grammar for its kind.
    pub fn text(&mut self, kind: FrameType) -> BxsaResult<PullEvent<'a>> {
        let s = self.r.read_str()?;
        Ok(match kind {
            FrameType::CharData => PullEvent::Text(s),
            FrameType::Comment => {
                check_comment(s)?;
                PullEvent::Comment(s)
            }
            _ => {
                let data = self.r.read_str()?;
                check_pi(s, data)?;
                PullEvent::Pi { target: s, data }
            }
        })
    }
}

/// Read a packed payload of `len` items of type `code` into `slot`. A
/// slot of the same variant is refilled in place (one bounds-checked
/// bulk copy on native byte order); another variant is replaced.
pub(crate) fn read_array_into(
    r: &mut XbsReader<'_>,
    code: TypeCode,
    len: usize,
    slot: &mut ArrayValue,
) -> BxsaResult<()> {
    macro_rules! fill {
        ($variant:ident) => {
            match slot {
                ArrayValue::$variant(v) => r.read_packed_into(len, v)?,
                other => *other = ArrayValue::$variant(r.read_packed(len)?),
            }
        };
    }
    match code {
        TypeCode::I8 => fill!(I8),
        TypeCode::U8 => fill!(U8),
        TypeCode::I16 => fill!(I16),
        TypeCode::U16 => fill!(U16),
        TypeCode::I32 => fill!(I32),
        TypeCode::U32 => fill!(U32),
        TypeCode::I64 => fill!(I64),
        TypeCode::U64 => fill!(U64),
        TypeCode::F32 => fill!(F32),
        TypeCode::F64 => fill!(F64),
        TypeCode::Str | TypeCode::Bool => {
            return Err(BxsaError::BadValueType {
                offset: r.position(),
                what: format!("{code:?} is not an array element type"),
            })
        }
    }
    Ok(())
}

/// A frame opened by [`Out::open`]: its stream offset, and the buffer
/// position and length of its reserved size field, for the backpatch in
/// [`Out::close`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Open {
    start: usize,
    field_at: usize,
    field_len: usize,
}

/// The arrays a gathering encode left in the document, in wire order:
/// each belongs after the buffer's bytes up to its `at`.
pub(crate) struct Refs<'d> {
    at: [usize; MAX_REFS],
    bytes: [&'d [u8]; MAX_REFS],
    len: usize,
    cap: usize,
}

impl<'d> Refs<'d> {
    /// Room for `cap` references (at most [`MAX_REFS`]).
    pub fn new(cap: usize) -> Refs<'d> {
        Refs {
            at: [0; MAX_REFS],
            bytes: [&[]; MAX_REFS],
            len: 0,
            cap: cap.min(MAX_REFS),
        }
    }

    /// Fill `parts` with `head` cut at each reference, the referenced
    /// bytes between the pieces, and return how many slots that took
    /// (an empty last piece is left out).
    pub fn interleave(&self, head: &'d [u8], parts: &mut [&'d [u8]]) -> usize {
        let mut from = 0;
        let mut n = 0;
        for (&at, &bytes) in self.at[..self.len].iter().zip(&self.bytes[..self.len]) {
            parts[n] = &head[from..at];
            parts[n + 1] = bytes;
            n += 2;
            from = at;
        }
        if from < head.len() || n == 0 {
            parts[n] = &head[from..];
            n += 1;
        }
        n
    }
}

/// The frame-writing core under the tree encoder and
/// [`crate::FrameWriter`]. Each caller keeps its own namespace-reference
/// lookup and hands the resolved reference to [`Out::name`].
pub(crate) struct Out(pub XbsWriter);

impl Out {
    /// Write the prefix byte and reserve a size field wide enough for
    /// any body up to `body_bound` bytes.
    pub fn open(&mut self, kind: FrameType, body_bound: usize) -> Open {
        let start = self.0.offset();
        self.0.put_raw_u8(prefix_byte(self.0.order(), kind));
        let field_len = size_field_len(body_bound);
        let field_at = self.0.reserve(field_len);
        Open {
            start,
            field_at,
            field_len,
        }
    }

    /// Backpatch the size field with the frame's actual total size
    /// (deferred array payloads included).
    pub fn close(&mut self, open: Open) {
        let total = (self.0.offset() - open.start) as u64;
        self.0
            .patch_vls_padded(open.field_at, total, open.field_len);
    }

    /// One symbol-table entry; a `None` prefix (default namespace) is an
    /// empty prefix string.
    pub fn decl(&mut self, prefix: Option<&str>, uri: &str) -> BxsaResult<()> {
        if let Some(prefix) = prefix {
            check_name("namespace prefix", prefix)?;
        }
        self.0.put_str(prefix.unwrap_or(""));
        self.0.put_str(uri);
        Ok(())
    }

    /// A tokenized name (§4.1): `ns` is the declaration `prefix`
    /// resolved to, written as VLS(scope depth + 1) and VLS(index), or
    /// VLS 0 for no namespace.
    pub fn name(&mut self, prefix: Option<&str>, ns: Option<NsRef>, local: &str) -> BxsaResult<()> {
        check_name("local name", local)?;
        match (ns, prefix) {
            (Some(r), _) => {
                self.0.put_vls(r.scope_depth as u64 + 1);
                self.0.put_vls(r.index as u64);
            }
            (None, Some(p)) => {
                return Err(BxsaError::UndeclaredPrefix {
                    prefix: p.to_owned(),
                })
            }
            (None, None) => {
                self.0.put_vls(0);
            }
        }
        self.0.put_str(local);
        Ok(())
    }

    /// A fixed-width atomic value: type code, then the aligned value.
    pub fn scalar<T: Primitive>(&mut self, value: T) {
        self.0.put_raw_u8(T::TYPE_CODE as u8);
        self.0.put(value);
    }

    /// Any atomic value.
    pub fn value(&mut self, value: LeafValue<'_>) {
        match value {
            LeafValue::I8(v) => self.scalar(v),
            LeafValue::U8(v) => self.scalar(v),
            LeafValue::I16(v) => self.scalar(v),
            LeafValue::U16(v) => self.scalar(v),
            LeafValue::I32(v) => self.scalar(v),
            LeafValue::U32(v) => self.scalar(v),
            LeafValue::I64(v) => self.scalar(v),
            LeafValue::U64(v) => self.scalar(v),
            LeafValue::F32(v) => self.scalar(v),
            LeafValue::F64(v) => self.scalar(v),
            LeafValue::Str(s) => {
                self.0.put_raw_u8(TypeCode::Str as u8);
                self.0.put_str(s);
            }
            LeafValue::Bool(b) => {
                self.0.put_raw_u8(TypeCode::Bool as u8);
                self.0.put_raw_u8(b as u8);
            }
        }
    }

    /// A packed array: element type code, VLS count, aligned payload.
    ///
    /// With `refs`, the payload is left in `values` and recorded there
    /// instead of copied when [`defer_array`](Out::defer_array) leaves it
    /// and `refs` has room; otherwise it is copied as without.
    pub fn array<'v, T: Primitive>(&mut self, values: &'v [T], refs: Option<&mut Refs<'v>>) {
        if let Some(refs) = refs.filter(|refs| refs.len < refs.cap) {
            if let Some(bytes) = self.defer_array(values) {
                refs.at[refs.len] = self.0.as_bytes().len();
                refs.bytes[refs.len] = bytes;
                refs.len += 1;
            }
            return;
        }
        self.0.put_raw_u8(T::TYPE_CODE as u8);
        self.0.put_vls(values.len() as u64);
        self.0.put_packed(values);
    }

    /// A packed array whose payload stays in `values` when the stream
    /// is in native byte order and the payload is at least
    /// [`MIN_REF_BYTES`]: the head and padding are written, the payload
    /// is counted, and its bytes come back for the caller to send right
    /// after the buffer as it stands. Otherwise the array is copied and
    /// this returns `None`.
    pub fn defer_array<'v, T: Primitive>(&mut self, values: &'v [T]) -> Option<&'v [u8]> {
        self.0.put_raw_u8(T::TYPE_CODE as u8);
        self.0.put_vls(values.len() as u64);
        if std::mem::size_of_val(values) >= MIN_REF_BYTES {
            if let Some(bytes) = self.0.defer_packed(values) {
                return Some(bytes);
            }
        }
        self.0.put_packed(values);
        None
    }

    /// Append a checksum frame covering everything already written.
    pub fn checksum(&mut self) {
        let crc = crate::crc32c::crc32c(self.0.as_bytes());
        let order = self.0.order();
        self.0.put_raw_u8(prefix_byte(order, FrameType::Checksum));
        self.0.put_raw_u8(CHECKSUM_FRAME_LEN as u8);
        self.0.put_raw_u8(CHECKSUM_ALG_CRC32C);
        // Raw bytes, not `put_u32`: scalar puts align to the buffer start,
        // which would pad the frame to a position-dependent size. The frame
        // is fixed-layout; only the CRC's byte order follows the prefix.
        self.0.put_bytes(&match order {
            ByteOrder::Little => crc.to_le_bytes(),
            ByteOrder::Big => crc.to_be_bytes(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_roundtrip() {
        for order in [ByteOrder::Little, ByteOrder::Big] {
            for ft in [
                FrameType::Document,
                FrameType::Component,
                FrameType::Leaf,
                FrameType::Array,
                FrameType::CharData,
                FrameType::Comment,
                FrameType::Pi,
                FrameType::Checksum,
            ] {
                let b = prefix_byte(order, ft);
                assert_eq!(parse_prefix(b, 0).unwrap(), (order, ft));
            }
        }
    }

    #[test]
    fn bad_codes_rejected() {
        // frame type 0 is unassigned
        assert!(matches!(
            parse_prefix(0x00, 5),
            Err(BxsaError::BadFrameType { offset: 5, code: 0 })
        ));
        // byte-order code 2 is reserved
        assert!(matches!(
            parse_prefix(0b1000_0001, 0),
            Err(BxsaError::BadByteOrder { code: 2, .. })
        ));
        assert!(matches!(
            parse_prefix(0x3f, 0),
            Err(BxsaError::BadFrameType { code: 0x3f, .. })
        ));
    }

    #[test]
    fn element_kinds() {
        assert!(FrameType::Component.is_element());
        assert!(FrameType::Leaf.is_element());
        assert!(FrameType::Array.is_element());
        assert!(!FrameType::Document.is_element());
        assert!(!FrameType::CharData.is_element());
    }
}
