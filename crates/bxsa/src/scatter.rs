//! Receiving a BXSA document with its large arrays placed where their
//! values end up: the receive-side twin of a gathering encode.
//!
//! In the machine's byte order an array frame's payload bytes are its
//! values' memory bytes (§4), so a receiver can read them from the
//! socket straight into typed storage instead of into a buffer it then
//! copies from ("receiving is just the reverse procedure", §5.1). A
//! [`Scatter`] takes a document's bytes as they arrive. While they do, a
//! layout walk over the frame core's cursor follows the frames; each
//! native-order array payload of 4 KiB or more is read into a typed
//! *slot* (one `Vec` per array, reused message after message) and leaves
//! a gap in the *head* buffer, which holds every other byte. Once the
//! document is in, [`Scatter::reader`] reads it with a [`FieldReader`]
//! that counts each gap in its stream offsets, so alignment and declared
//! frame ends are checked on the same offsets as in the flat bytes, and
//! [`FieldReader::read_array_into`] on a placed array exchanges the
//! slot with the caller's `Vec` in O(1). A document with no placed array
//! is read exactly as [`FieldReader::new`] reads it.
//!
//! What stays whole in the head: foreign-order and small arrays, a
//! document followed by anything (a checksum trailer covers the bytes
//! whole), and everything after the walk meets a frame it cannot follow.
//! The walk never decides what the document means; it only decides where
//! bytes go, and it places an array only at a payload a sequential read
//! of the frames reaches, so the placed read gives the flat read's
//! values, or its outcome on damaged input.
//!
//! ```
//! use bxdm::{ArrayValue, Document, Element};
//!
//! let values: Vec<f64> = (0..1024).map(f64::from).collect();
//! let doc = Document::with_root(
//!     Element::component("r").with_child(Element::array("v", ArrayValue::F64(values.clone()))),
//! );
//! let bytes = bxsa::encode_with(&doc, &bxsa::EncodeOptions {
//!     byte_order: xbs::ByteOrder::native(),
//!     ..Default::default()
//! }).unwrap();
//!
//! let mut s = bxsa::Scatter::new();
//! s.begin(bytes.len());
//! let mut from = 0;
//! loop {
//!     let buf = s.next_buf(1 << 20);
//!     if buf.is_empty() {
//!         break;
//!     }
//!     let n = buf.len();
//!     buf.copy_from_slice(&bytes[from..from + n]);
//!     from += n;
//!     s.filled(n);
//! }
//! assert_eq!(s.placed_bytes(), 1024 * 8);
//!
//! let mut r = s.reader().unwrap();
//! let root = r.open().unwrap();
//! let v = r.open().unwrap();
//! let mut out = Vec::new();
//! r.read_array_into::<f64>(&v, &mut out).unwrap();
//! r.close(&root).unwrap();
//! r.finish().unwrap();
//! assert_eq!(out, values);
//! ```

use std::any::Any;
use std::cell::{Cell, RefCell};

use bxdm::ArrayValue;
use xbs::reader::Gap;
use xbs::{ByteOrder, Primitive, TypeCode, XbsReader};

use crate::error::{BxsaError, BxsaResult};
use crate::frame::{Cursor, FrameType, MIN_REF_BYTES};
use crate::typed::FieldReader;
use crate::MAX_REFS;

/// Head bytes the walk asks for past what it has parsed. It is no more
/// than the smallest placed payload, so a head read that runs into a
/// payload never runs past it.
const HEAD_STEP: usize = 4096;

/// The most bytes one frame head or element header may take while the
/// walk waits for the rest of it; a longer one ends the walk (each wait
/// parses it again), and the rest of the document is received whole.
const MAX_ITEM: usize = 16 * HEAD_STEP;

/// Apply `$body` to the `Vec` inside any [`ArrayValue`].
macro_rules! each_vec {
    ($value:expr, $v:ident => $body:expr) => {
        match $value {
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

/// Typed storage for one placed array, kept from message to message.
#[derive(Default)]
pub(crate) struct Slot {
    values: RefCell<Option<ArrayValue>>,
    /// A reader moved the values out (into the caller's `Vec`).
    taken: Cell<bool>,
}

impl Slot {
    /// Make the slot hold `count` items of type `code` (contents
    /// unspecified): the same type keeps its buffer, grown or truncated
    /// as the bytes arrive.
    fn prepare(&mut self, code: TypeCode, count: usize) {
        let values = self.values.get_mut();
        if values.as_ref().map(ArrayValue::type_code) != Some(code) {
            *values = Some(empty(code));
        }
        if let Some(values) = values {
            each_vec!(values, v => v.truncate(count));
        }
        self.taken.set(false);
    }

    /// The slot's bytes, its `Vec` grown (zero-filled) to cover at least
    /// `upto` bytes.
    fn bytes_mut(&mut self, upto: usize) -> &mut [u8] {
        match self.values.get_mut() {
            Some(values) => each_vec!(values, v => grow(v, upto)),
            None => &mut [],
        }
    }

    /// The values' bytes, when no reader has taken them.
    fn bytes(&self) -> Option<std::cell::Ref<'_, [u8]>> {
        if self.taken.get() {
            return None;
        }
        std::cell::Ref::filter_map(self.values.borrow(), |values| {
            values
                .as_ref()
                .map(|values| each_vec!(values, v => xbs::prim::bytes_of(v)))
        })
        .ok()
    }

    /// Exchange the placed values with `out` (a reader reads each placed
    /// array once).
    pub(crate) fn take_into<T: Primitive>(&self, out: &mut Vec<T>) -> BxsaResult<()> {
        let mut values = self.values.borrow_mut();
        let placed = values
            .as_mut()
            .and_then(|values| each_vec!(values, v => (v as &mut dyn Any).downcast_mut::<Vec<T>>()))
            .filter(|_| !self.taken.get())
            .ok_or_else(|| BxsaError::Structure {
                what: format!(
                    "placed {:?} array read twice or as another type",
                    T::TYPE_CODE
                ),
            })?;
        std::mem::swap(placed, out);
        self.taken.set(true);
        Ok(())
    }
}

/// The bytes of `v`, grown (zero-filled) to at least `upto` bytes.
fn grow<T: Primitive>(v: &mut Vec<T>, upto: usize) -> &mut [u8] {
    let items = upto.div_ceil(T::WIDTH);
    if v.len() < items {
        v.resize(items, T::read_bytes(ByteOrder::native(), &[0; 8]));
    }
    xbs::prim::bytes_of_mut(v)
}

/// An empty array of element type `code` (a numeric code).
fn empty(code: TypeCode) -> ArrayValue {
    match code {
        TypeCode::I8 => ArrayValue::I8(Vec::new()),
        TypeCode::U8 => ArrayValue::U8(Vec::new()),
        TypeCode::I16 => ArrayValue::I16(Vec::new()),
        TypeCode::U16 => ArrayValue::U16(Vec::new()),
        TypeCode::I32 => ArrayValue::I32(Vec::new()),
        TypeCode::U32 => ArrayValue::U32(Vec::new()),
        TypeCode::I64 => ArrayValue::I64(Vec::new()),
        TypeCode::U64 => ArrayValue::U64(Vec::new()),
        TypeCode::F32 => ArrayValue::F32(Vec::new()),
        _ => ArrayValue::F64(Vec::new()),
    }
}

/// Where the layout walk stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Walk {
    /// Before the document frame.
    #[default]
    Start,
    /// Inside the document: `open` holds the frames entered.
    Frames,
    /// The document is walked, or the walk met a frame it cannot follow:
    /// the rest arrives whole.
    Done,
}

/// A container frame the walk is inside: its declared end and the child
/// frames still to come.
#[derive(Debug, Clone, Copy)]
struct Open {
    end: usize,
    children: usize,
}

/// One step of the walk: what the frame (or the end of a container) at
/// the walk's offset is.
enum Item {
    /// A container entered: the document or a component.
    Enter {
        end: usize,
        children: usize,
        next: usize,
        doc: bool,
    },
    /// The innermost container's children are all walked.
    Leave,
    /// A frame read whole into the head, up to its end.
    Pass(usize),
    /// An array whose payload goes to a slot.
    Place {
        at: usize,
        code: TypeCode,
        count: usize,
    },
}

/// A BXSA document received with its large native-order arrays in typed
/// slots (see the [module docs](self)).
///
/// One per connection or engine: the head buffer and the slots keep their
/// capacity, so a steady stream of same-shaped replies allocates nothing
/// — a slot the caller's `Vec` was exchanged into is refilled in turn.
///
/// Receive with [`begin`](Scatter::begin), then [`next_buf`] and
/// [`filled`] until `next_buf` is empty; or take the whole document at
/// once with [`whole`](Scatter::whole). Then read it with
/// [`reader`](Scatter::reader), or get it back as flat bytes with
/// [`flatten`](Scatter::flatten).
///
/// [`next_buf`]: Scatter::next_buf
/// [`filled`]: Scatter::filled
#[derive(Default)]
pub struct Scatter {
    /// Every byte of the document but the placed payloads.
    head: Vec<u8>,
    /// Bytes of `head` received (it may be longer: room for the read in
    /// progress).
    head_len: usize,
    /// The head read in progress ends here.
    head_to: usize,
    /// The placed payloads, in stream order; gap `i`'s bytes are slot `i`.
    gaps: Vec<Gap>,
    slots: Vec<Slot>,
    /// Declared document length, and the bytes of it received so far.
    len: usize,
    received: usize,
    /// The slot being filled: its gap and the bytes in it so far.
    fill: Option<(usize, usize)>,
    walk: Walk,
    /// Stream offset of the walk's next frame.
    at: usize,
    open: Vec<Open>,
}

impl Scatter {
    /// An empty receiver.
    pub fn new() -> Scatter {
        Scatter::default()
    }

    /// Start receiving a document of `len` bytes.
    pub fn begin(&mut self, len: usize) {
        self.head.clear();
        self.head_len = 0;
        self.head_to = 0;
        self.gaps.clear();
        self.len = len;
        self.received = 0;
        self.fill = None;
        self.walk = Walk::Start;
        self.at = 0;
        self.open.clear();
    }

    /// Take the next document whole: the returned buffer is its head,
    /// and nothing is placed. For receivers that do not read through
    /// [`next_buf`](Scatter::next_buf).
    pub fn whole(&mut self) -> &mut Vec<u8> {
        self.begin(0);
        self.walk = Walk::Done;
        &mut self.head
    }

    /// Where the next bytes of the document go: at most `max` bytes of
    /// the head or of the slot being filled, which grow (zero-filled) by
    /// no more than that. Empty once the whole document is in.
    pub fn next_buf(&mut self, max: usize) -> &mut [u8] {
        let max = max.max(1);
        if self.received == self.len {
            return &mut [];
        }
        if let Some((gap, done)) = self.fill {
            let to = self.gaps[gap].len.min(done + max);
            return &mut self.slots[gap].bytes_mut(to)[done..to];
        }
        if self.head_len == self.head_to {
            let left = self.len - self.received;
            let step = match self.walk {
                Walk::Done => left,
                _ => self.at.saturating_sub(self.received) + HEAD_STEP,
            };
            self.head_to = self.head_len + step.min(left).min(max);
            if self.head.len() < self.head_to {
                self.head.resize(self.head_to, 0);
            }
        }
        &mut self.head[self.head_len..self.head_to]
    }

    /// `n` bytes arrived at the front of the last [`next_buf`](Scatter::next_buf).
    pub fn filled(&mut self, n: usize) {
        self.received += n;
        match &mut self.fill {
            Some((gap, done)) => {
                *done += n;
                if *done < self.gaps[*gap].len {
                    return;
                }
                self.fill = None;
            }
            None => {
                self.head_len += n;
                if self.head_len < self.head_to {
                    return;
                }
            }
        }
        self.advance();
        if self.received == self.len {
            self.head.truncate(self.head_len);
        }
    }

    /// The head: the whole document when nothing was placed.
    pub fn head(&self) -> &[u8] {
        &self.head
    }

    /// Bytes of storage held: the head's capacity and the slots'.
    pub fn capacity(&self) -> usize {
        fn held<T>(v: &Vec<T>) -> usize {
            v.capacity() * std::mem::size_of::<T>()
        }
        let slots: usize = self
            .slots
            .iter()
            .filter_map(|slot| {
                slot.values
                    .borrow()
                    .as_ref()
                    .map(|values| each_vec!(values, v => held(v)))
            })
            .sum();
        self.head.capacity() + slots
    }

    /// Payload bytes of the document's placed arrays.
    pub fn placed_bytes(&self) -> usize {
        self.gaps.iter().map(|g| g.len).sum()
    }

    /// A reader over the received document, placed arrays included.
    pub fn reader(&self) -> BxsaResult<FieldReader<'_>> {
        FieldReader::placed(&self.head, &self.gaps, &self.slots)
    }

    /// The document as flat bytes: each placed payload goes back into the
    /// head where it belongs. A payload a reader already took comes back
    /// as zeros: only the frames around it, not its values, are then
    /// read again.
    pub fn flatten(&mut self) -> &[u8] {
        let total = self.placed_bytes();
        if total == 0 {
            return &self.head;
        }
        let old = self.head.len();
        self.head.resize(old + total, 0);
        let mut end = old;
        let mut shift = total;
        for (gap, slot) in self.gaps.iter().zip(&self.slots).rev() {
            self.head.copy_within(gap.at..end, gap.at + shift);
            shift -= gap.len;
            let run = &mut self.head[gap.at + shift..gap.at + shift + gap.len];
            match slot.bytes() {
                Some(bytes) if bytes.len() == run.len() => run.copy_from_slice(&bytes),
                _ => run.fill(0),
            }
            end = gap.at;
        }
        self.gaps.clear();
        &self.head
    }

    /// Walk the frames received so far, placing arrays, until the walk
    /// needs bytes still to come or is done.
    fn advance(&mut self) {
        while self.fill.is_none() && self.walk != Walk::Done {
            let tail = Gap {
                at: self.head_len,
                len: self.len - self.received,
            };
            self.gaps.push(tail);
            let item = self.parse();
            self.gaps.pop();
            match item {
                Ok(item) => self.apply(item),
                Err(BxsaError::Xbs(
                    xbs::XbsError::Gap { .. } | xbs::XbsError::UnexpectedEof { .. },
                )) if tail.len > 0 && self.received.saturating_sub(self.at) <= MAX_ITEM => return,
                Err(_) => self.walk = Walk::Done,
            }
        }
    }

    /// What the frame at the walk's offset is. The bytes not yet received
    /// are the reader's last gap, so a frame that reaches into them is a
    /// gap error: wait for more.
    fn parse(&self) -> BxsaResult<Item> {
        let r = XbsReader::with_gaps(&self.head[..self.head_len], ByteOrder::Little, &self.gaps);
        let mut c = Cursor::over(r, self.open.len().saturating_sub(1));
        let Some(top) = self.open.last() else {
            let (doc, children) = c.document()?;
            return Ok(Item::Enter {
                end: doc.end,
                children,
                next: c.r.position(),
                doc: true,
            });
        };
        if top.children == 0 {
            return Ok(Item::Leave);
        }
        c.r.seek(self.at)?;
        let frame = c.open()?;
        Ok(match frame.kind {
            FrameType::Component => {
                c.header(None)?;
                let children = c.children()?;
                Item::Enter {
                    end: frame.end,
                    children,
                    next: c.r.position(),
                    doc: false,
                }
            }
            FrameType::Array => {
                c.header(None)?;
                let (code, count) = c.array_head()?;
                let at = c.r.position();
                let bytes = count * code.width().expect("array heads are fixed-width");
                let place = frame.order.is_native()
                    && bytes >= MIN_REF_BYTES
                    && at + bytes == frame.end
                    && self.received < frame.end
                    && self.gaps.len() <= MAX_REFS;
                if place {
                    Item::Place { at, code, count }
                } else {
                    Item::Pass(frame.end)
                }
            }
            _ => Item::Pass(frame.end),
        })
    }

    fn apply(&mut self, item: Item) {
        if let (Item::Pass(_) | Item::Place { .. }, Some(top)) = (&item, self.open.last_mut()) {
            top.children -= 1;
        }
        match item {
            Item::Enter {
                end,
                children,
                next,
                doc,
            } => {
                if doc {
                    // Anything after the document (a checksum trailer
                    // covers the bytes whole) keeps it flat.
                    if end != self.len {
                        self.walk = Walk::Done;
                        return;
                    }
                    self.walk = Walk::Frames;
                } else if let Some(top) = self.open.last_mut() {
                    top.children -= 1;
                }
                self.open.push(Open { end, children });
                self.at = next;
            }
            Item::Leave => {
                let top = self.open.pop().expect("a container is open");
                if self.at != top.end || self.open.is_empty() {
                    self.walk = Walk::Done;
                }
            }
            Item::Pass(end) => self.at = end,
            Item::Place { at, code, count } => self.place(at, code, count),
        }
    }

    /// Move the payload bytes already in the head (what the last head
    /// read brought past the array head) into the slot, and fill the
    /// rest of it from the reads to come.
    fn place(&mut self, at: usize, code: TypeCode, count: usize) {
        let bytes = count * code.width().expect("array heads are fixed-width");
        let from = at - self.placed_bytes();
        let have = self.head_len - from;
        let gap = self.gaps.len();
        if self.slots.len() == gap {
            self.slots.push(Slot::default());
        }
        let slot = &mut self.slots[gap];
        slot.prepare(code, count);
        slot.bytes_mut(have)[..have].copy_from_slice(&self.head[from..self.head_len]);
        self.head_len = from;
        self.head_to = from;
        self.gaps.push(Gap {
            at: from,
            len: bytes,
        });
        self.fill = Some((gap, have));
        self.at = at + bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bxdm::{AtomicValue, Document, Element};

    /// Feed `bytes` to `s` in reads of at most `split` bytes each (the
    /// sink's own limit aside).
    pub(crate) fn receive(s: &mut Scatter, bytes: &[u8], split: usize) {
        s.begin(bytes.len());
        let mut from = 0;
        loop {
            let buf = s.next_buf(1 << 20);
            if buf.is_empty() {
                break;
            }
            let n = buf.len().min(split.max(1));
            buf[..n].copy_from_slice(&bytes[from..from + n]);
            from += n;
            s.filled(n);
        }
        assert_eq!(from, bytes.len());
    }

    fn native() -> crate::EncodeOptions {
        crate::EncodeOptions {
            byte_order: ByteOrder::native(),
            ..Default::default()
        }
    }

    fn pair_doc(n: usize) -> Document {
        Document::with_root(
            Element::component("r")
                .with_child(Element::leaf("tag", AtomicValue::I64(5)))
                .with_child(Element::array(
                    "i",
                    ArrayValue::I32((0..n as i32).collect()),
                ))
                .with_child(Element::array(
                    "v",
                    ArrayValue::F64((0..n).map(|i| i as f64 * 0.5).collect()),
                )),
        )
    }

    fn read_pair(r: &mut FieldReader<'_>, i: &mut Vec<i32>, v: &mut Vec<f64>) -> BxsaResult<()> {
        let root = r.open()?;
        for _ in 0..root.child_count {
            let f = r.open()?;
            match f.local {
                "i" => r.read_array_into(&f, i)?,
                "v" => r.read_array_into(&f, v)?,
                _ => r.skip(&f)?,
            }
        }
        r.close(&root)?;
        r.finish()
    }

    #[test]
    fn large_native_arrays_are_placed_and_exchanged() {
        let n = 5000;
        let bytes = crate::encode_with(&pair_doc(n), &native()).unwrap();
        let mut s = Scatter::new();
        for split in [1, 7, 4096, usize::MAX] {
            receive(&mut s, &bytes, split);
            assert_eq!(s.placed_bytes(), n * 12, "split {split}");
            assert_eq!(s.head().len() + n * 12, bytes.len());
            let (mut i, mut v) = (vec![9; 3], Vec::new());
            read_pair(&mut s.reader().unwrap(), &mut i, &mut v).unwrap();
            assert_eq!(i, (0..n as i32).collect::<Vec<_>>());
            assert_eq!(v.len(), n);
            assert_eq!(v[n - 1], (n - 1) as f64 * 0.5);
        }
    }

    #[test]
    fn foreign_small_and_trailed_documents_stay_whole() {
        let foreign = match ByteOrder::native() {
            ByteOrder::Little => ByteOrder::Big,
            ByteOrder::Big => ByteOrder::Little,
        };
        let cases = [
            crate::encode_with(
                &pair_doc(5000),
                &crate::EncodeOptions {
                    byte_order: foreign,
                    checksum: false,
                },
            )
            .unwrap(),
            crate::encode_with(&pair_doc(100), &native()).unwrap(),
            crate::encode_with(
                &pair_doc(5000),
                &crate::EncodeOptions {
                    checksum: true,
                    ..native()
                },
            )
            .unwrap(),
        ];
        let mut s = Scatter::new();
        for bytes in cases {
            receive(&mut s, &bytes, 1000);
            assert_eq!(s.placed_bytes(), 0);
            assert_eq!(s.head(), &bytes[..]);
            let (mut i, mut v) = (Vec::new(), Vec::new());
            read_pair(&mut s.reader().unwrap(), &mut i, &mut v).unwrap();
        }
    }

    #[test]
    fn flatten_gives_back_the_received_bytes() {
        let n = 3000;
        let bytes = crate::encode_with(&pair_doc(n), &native()).unwrap();
        let mut s = Scatter::new();
        receive(&mut s, &bytes, 333);
        assert!(s.placed_bytes() > 0);
        assert_eq!(s.flatten(), &bytes[..]);
        assert_eq!(s.placed_bytes(), 0);
        // A taken array comes back as zeros, the frames around it intact;
        // a placed array is read once.
        receive(&mut s, &bytes, 333);
        let mut r = s.reader().unwrap();
        r.open().unwrap();
        let tag = r.open().unwrap();
        r.skip(&tag).unwrap();
        let i = r.open().unwrap();
        let mut taken = Vec::new();
        assert!(r
            .clone()
            .read_array_into::<f64>(&i, &mut Vec::new())
            .is_err());
        r.clone().read_array_into::<i32>(&i, &mut taken).unwrap();
        assert!(r.read_array_into::<i32>(&i, &mut taken).is_err());
        let mut zeroed = pair_doc(n);
        if let Some(bxdm::Node::Element(e)) = zeroed.root_mut().unwrap().children_mut().get_mut(1) {
            e.content = bxdm::Content::Array(ArrayValue::I32(vec![0; n]));
        }
        let expect = crate::encode_with(&zeroed, &native()).unwrap();
        assert_eq!(s.flatten(), &expect[..]);
    }

    /// A declared length far past what arrives costs one read's worth of
    /// slot, not the declared size: the slot grows only as far as the
    /// buffer handed to the next read.
    #[test]
    fn a_huge_array_grows_its_slot_only_as_bytes_arrive() {
        let n = 25 << 20; // a 200 MiB f64 array
        let mut w = crate::typed::FrameWriter::new(ByteOrder::native());
        let body = crate::estimate::plain_array_body_bound("v", &[], TypeCode::F64, n);
        let mut head = Vec::new();
        // Only the frame heads: the payload is never materialized.
        w.set_gather(true);
        w.begin_document(
            &mut head,
            1,
            crate::typed::FrameWriter::document_bound(body),
        );
        let values = vec![0.0f64; n];
        w.array(crate::typed::TypedName::new(None, "v"), &[], &values)
            .unwrap();
        w.finish_document(&mut head).unwrap();
        drop(values);
        let len = head.len() + w.deferred_bytes();
        let mut s = Scatter::new();
        s.begin(len);
        let mut from = 0;
        let mut sent = 0;
        let arrived = HEAD_STEP;
        while sent < arrived {
            let buf = s.next_buf(1 << 20);
            let n = buf.len().min(arrived - sent);
            for b in &mut buf[..n] {
                *b = head.get(from).copied().unwrap_or(0);
                from += 1;
            }
            sent += n;
            s.filled(n);
        }
        assert_eq!(
            s.fill.map(|(gap, _)| gap),
            Some(0),
            "the array is being placed"
        );
        let buf = s.next_buf(1 << 20);
        assert!(buf.len() <= 1 << 20);
        let held = s.capacity();
        assert!(held <= (1 << 20) + 3 * HEAD_STEP, "{held} bytes held");
    }
}
