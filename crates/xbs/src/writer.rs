//! Serializing XBS streams.

use crate::byteorder::ByteOrder;
use crate::prim::Primitive;
use crate::vls;

/// An append-only XBS output stream.
///
/// Offsets are relative to the start of the stream's buffer; the writer
/// pads with zero bytes so that every fixed-width number lands on a
/// multiple of its own size, enabling the zero-copy reads on the other
/// side (see [`crate::reader::XbsReader`]).
///
/// A packed run can also be *deferred* ([`defer_packed`](XbsWriter::defer_packed)):
/// the writer counts its bytes without copying them, and the caller puts
/// them on the wire itself between the buffer's bytes. Offsets are then
/// offsets in that gathered stream, so alignment and sizes stay exact.
#[derive(Debug, Clone)]
pub struct XbsWriter {
    buf: Vec<u8>,
    order: ByteOrder,
    /// Bytes of deferred runs: part of the stream, not of `buf`.
    deferred: usize,
}

impl XbsWriter {
    /// A new empty stream in the given byte order.
    pub fn new(order: ByteOrder) -> XbsWriter {
        XbsWriter {
            buf: Vec::new(),
            order,
            deferred: 0,
        }
    }

    /// A new empty stream with preallocated capacity.
    pub fn with_capacity(capacity: usize, order: ByteOrder) -> XbsWriter {
        XbsWriter {
            buf: Vec::with_capacity(capacity),
            order,
            deferred: 0,
        }
    }

    /// A new stream writing into a caller-provided buffer.
    ///
    /// The buffer is cleared but keeps its capacity, so a buffer recovered
    /// with [`into_bytes`](XbsWriter::into_bytes) or
    /// [`take_buf`](XbsWriter::take_buf) can be cycled through encode
    /// calls without reallocating once it has grown to the working-set
    /// size. This is the reusable-buffer mode `bxsa::encode_into` and the
    /// SOAP engine's per-connection pools are built on.
    pub fn from_buf(mut buf: Vec<u8>, order: ByteOrder) -> XbsWriter {
        buf.clear();
        XbsWriter {
            buf,
            order,
            deferred: 0,
        }
    }

    /// Take the encoded bytes out of the writer, leaving it empty but
    /// usable (unlike [`into_bytes`](XbsWriter::into_bytes), the writer
    /// itself survives and can keep encoding into a fresh buffer).
    #[inline]
    pub fn take_buf(&mut self) -> Vec<u8> {
        self.deferred = 0;
        std::mem::take(&mut self.buf)
    }

    /// Discard everything written so far, keeping the buffer's capacity.
    #[inline]
    pub fn clear(&mut self) {
        self.buf.clear();
        self.deferred = 0;
    }

    /// Byte order this writer encodes numbers in.
    #[inline]
    pub fn order(&self) -> ByteOrder {
        self.order
    }

    /// Current length of the stream, deferred runs included (also the
    /// offset of the next write).
    #[inline]
    pub fn offset(&self) -> usize {
        self.buf.len() + self.deferred
    }

    /// `true` if nothing has been written yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.offset() == 0
    }

    /// Consume the writer and return the encoded bytes (deferred runs
    /// are not in them).
    #[inline]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Borrow the bytes written so far (deferred runs are not in them).
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Insert zero bytes until the next write offset is a multiple of
    /// `align`. Returns the number of padding bytes inserted.
    #[inline]
    pub fn align(&mut self, align: usize) -> usize {
        let offset = self.offset();
        let pad = crate::align_up(offset, align) - offset;
        // `resize` with 0 is cheap and keeps padding deterministic; the
        // reader verifies the padding is zero to detect desynchronization.
        self.buf.resize(self.buf.len() + pad, 0);
        pad
    }

    /// Append raw bytes with no alignment (names, UTF-8 text, prefixes).
    #[inline]
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Append a single raw byte (frame type codes and similar).
    #[inline]
    pub fn put_raw_u8(&mut self, byte: u8) {
        self.buf.push(byte);
    }

    /// Append a variable-length size integer; returns bytes written.
    #[inline]
    pub fn put_vls(&mut self, value: u64) -> usize {
        vls::write_vls(&mut self.buf, value)
    }

    /// Append a length-prefixed UTF-8 string (VLS byte length + bytes).
    #[inline]
    pub fn put_str(&mut self, s: &str) {
        self.put_vls(s.len() as u64);
        self.put_bytes(s.as_bytes());
    }

    /// Append one aligned fixed-width value.
    #[inline]
    pub fn put<T: Primitive>(&mut self, value: T) {
        self.align(T::WIDTH);
        let start = self.buf.len();
        self.buf.resize(start + T::WIDTH, 0);
        value.write_bytes(self.order, &mut self.buf[start..]);
    }

    /// Append an aligned packed run of values *without* a count prefix.
    ///
    /// The element count is carried elsewhere (e.g. in a BXSA array frame
    /// header written before calling this).
    pub fn put_packed<T: Primitive>(&mut self, values: &[T]) {
        self.align(T::WIDTH);
        if self.order.is_native() {
            // Hot path for scientific payloads: the in-memory bytes are
            // the wire bytes, so one bulk copy with no zero-fill first.
            self.buf.extend_from_slice(crate::prim::bytes_of(values));
        } else {
            let start = self.buf.len();
            self.buf.resize(start + values.len() * T::WIDTH, 0);
            for (chunk, v) in self.buf[start..].chunks_exact_mut(T::WIDTH).zip(values) {
                v.write_bytes(self.order, chunk);
            }
        }
    }

    /// Defer an aligned packed run of values: write its padding and
    /// count its bytes, but leave them where they are. The caller puts
    /// the returned bytes on the wire right after [`as_bytes`] as it
    /// stands on return, ahead of anything written next; the gathered
    /// stream then equals what [`put_packed`] would have written.
    ///
    /// Only the machine's own byte order keeps a run's memory bytes
    /// equal to its wire bytes, so on any other order this writes
    /// nothing and returns `None`.
    ///
    /// [`as_bytes`]: XbsWriter::as_bytes
    /// [`put_packed`]: XbsWriter::put_packed
    pub fn defer_packed<'v, T: Primitive>(&mut self, values: &'v [T]) -> Option<&'v [u8]> {
        if !self.order.is_native() {
            return None;
        }
        self.align(T::WIDTH);
        let bytes = crate::prim::bytes_of(values);
        self.deferred += bytes.len();
        Some(bytes)
    }

    /// Append a counted, aligned packed array: VLS element count followed
    /// by the aligned elements.
    pub fn put_array<T: Primitive>(&mut self, values: &[T]) {
        self.put_vls(values.len() as u64);
        self.put_packed(values);
    }

    /// Reserve `n` zero bytes for later backpatching; returns their
    /// position in [`as_bytes`](XbsWriter::as_bytes), which is their
    /// stream offset less any deferred bytes before them.
    ///
    /// BXSA writes each frame in a single pass: the frame-size field is
    /// reserved here and patched once the body length is known, so nothing
    /// already written (in particular aligned array payloads) moves.
    #[inline]
    pub fn reserve(&mut self, n: usize) -> usize {
        let at = self.buf.len();
        self.buf.resize(at + n, 0);
        at
    }

    /// Patch a previously [`reserve`](XbsWriter::reserve)d region with a
    /// padded VLS encoding of `value` occupying exactly `len` bytes.
    ///
    /// # Panics
    /// Panics if the region is out of bounds or `value` does not fit.
    #[inline]
    pub fn patch_vls_padded(&mut self, at: usize, value: u64, len: usize) {
        vls::write_vls_padded(&mut self.buf[at..at + len], value, len);
    }
}

macro_rules! concrete_puts {
    ($(($scalar:ident, $array:ident, $t:ty)),+ $(,)?) => {
        impl XbsWriter {
            $(
                #[doc = concat!("Append one aligned `", stringify!($t), "`.")]
                #[inline]
                pub fn $scalar(&mut self, value: $t) {
                    self.put(value);
                }

                #[doc = concat!("Append a counted packed array of `", stringify!($t), "`.")]
                #[inline]
                pub fn $array(&mut self, values: &[$t]) {
                    self.put_array(values);
                }
            )+
        }
    };
}

concrete_puts! {
    (put_i8, put_array_i8, i8),
    (put_u8, put_array_u8, u8),
    (put_i16, put_array_i16, i16),
    (put_u16, put_array_u16, u16),
    (put_i32, put_array_i32, i32),
    (put_u32, put_array_u32, u32),
    (put_i64, put_array_i64, i64),
    (put_u64, put_array_u64, u64),
    (put_f32, put_array_f32, f32),
    (put_f64, put_array_f64, f64),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_alignment_pads() {
        let mut w = XbsWriter::new(ByteOrder::Little);
        w.put_u8(1); // offset 0
        w.put_f64(2.0); // pads to offset 8
        assert_eq!(w.offset(), 16);
        assert_eq!(&w.as_bytes()[1..8], &[0u8; 7]);
    }

    #[test]
    fn no_padding_when_aligned() {
        let mut w = XbsWriter::new(ByteOrder::Little);
        w.put_u32(9);
        w.put_u32(10);
        assert_eq!(w.offset(), 8);
    }

    #[test]
    fn packed_array_is_contiguous() {
        let mut w = XbsWriter::new(ByteOrder::Little);
        w.put_packed(&[1.0f64, 2.0, 3.0]);
        assert_eq!(w.offset(), 24);
        assert_eq!(&w.as_bytes()[0..8], &1.0f64.to_le_bytes());
    }

    #[test]
    fn counted_array_layout() {
        let mut w = XbsWriter::new(ByteOrder::Little);
        w.put_array(&[7i32, 8]);
        // count (1 byte VLS = 0x02), pad to 4, two 4-byte ints
        let b = w.as_bytes();
        assert_eq!(b[0], 2);
        assert_eq!(&b[1..4], &[0, 0, 0]);
        assert_eq!(&b[4..8], &7i32.to_le_bytes());
        assert_eq!(&b[8..12], &8i32.to_le_bytes());
    }

    #[test]
    fn str_is_length_prefixed() {
        let mut w = XbsWriter::new(ByteOrder::Little);
        w.put_str("héllo");
        let b = w.as_bytes();
        assert_eq!(b[0] as usize, "héllo".len());
        assert_eq!(&b[1..], "héllo".as_bytes());
    }

    #[test]
    fn big_endian_scalar_bytes() {
        let mut w = XbsWriter::new(ByteOrder::Big);
        w.put_u16(0x0102);
        assert_eq!(w.as_bytes(), &[1, 2]);
    }

    #[test]
    fn align_returns_pad_count() {
        let mut w = XbsWriter::new(ByteOrder::Little);
        w.put_raw_u8(0xaa);
        assert_eq!(w.align(8), 7);
        assert_eq!(w.align(8), 0);
    }

    #[test]
    fn from_buf_reuses_capacity_and_clears() {
        let mut stale = Vec::with_capacity(1024);
        stale.extend_from_slice(b"leftover");
        let cap = stale.capacity();
        let ptr = stale.as_ptr();
        let mut w = XbsWriter::from_buf(stale, ByteOrder::Little);
        assert!(w.is_empty());
        w.put_u32(0xdeadbeef);
        let out = w.take_buf();
        assert_eq!(out.capacity(), cap);
        assert_eq!(out.as_ptr(), ptr);
        assert_eq!(out, 0xdeadbeefu32.to_le_bytes());
    }

    #[test]
    fn take_buf_leaves_writer_usable() {
        let mut w = XbsWriter::new(ByteOrder::Little);
        w.put_u8(1);
        let first = w.take_buf();
        assert_eq!(first, [1]);
        assert!(w.is_empty());
        w.put_u8(2);
        assert_eq!(w.as_bytes(), [2]);
    }

    #[test]
    fn deferred_runs_gather_to_the_copied_stream() {
        let ints = [1i32, -2, 3];
        let floats = [0.5f64, 1.5];
        let native = ByteOrder::native();
        let mut copied = XbsWriter::new(native);
        copied.put_u8(9);
        copied.put_packed(&ints);
        copied.put_u8(7);
        copied.put_packed(&floats);
        copied.put_u16(5);

        let mut w = XbsWriter::new(native);
        w.put_u8(9);
        let first = w.defer_packed(&ints).unwrap();
        let at_first = w.as_bytes().len();
        w.put_u8(7);
        let second = w.defer_packed(&floats).unwrap();
        let at_second = w.as_bytes().len();
        w.put_u16(5);
        assert_eq!(w.offset(), copied.offset());
        let head = w.as_bytes();
        let gathered = [
            &head[..at_first],
            first,
            &head[at_first..at_second],
            second,
            &head[at_second..],
        ]
        .concat();
        assert_eq!(gathered, copied.as_bytes());
    }

    #[test]
    fn deferring_needs_the_native_order() {
        let foreign = match ByteOrder::native() {
            ByteOrder::Little => ByteOrder::Big,
            ByteOrder::Big => ByteOrder::Little,
        };
        let mut w = XbsWriter::new(foreign);
        w.put_u8(1);
        assert_eq!(w.defer_packed(&[1u32, 2]), None);
        assert_eq!(w.offset(), 1);
    }

    #[test]
    fn clearing_forgets_deferred_runs() {
        let mut w = XbsWriter::new(ByteOrder::native());
        w.defer_packed(&[1u64, 2]).unwrap();
        assert_eq!(w.offset(), 16);
        assert!(!w.is_empty());
        w.clear();
        assert!(w.is_empty());
        w.defer_packed(&[3u16]).unwrap();
        assert!(w.take_buf().is_empty());
        assert_eq!(w.offset(), 0);
    }

    #[test]
    fn clear_keeps_writing_from_offset_zero() {
        let mut w = XbsWriter::with_capacity(64, ByteOrder::Little);
        w.put_u64(7);
        w.clear();
        assert_eq!(w.offset(), 0);
        w.put_u8(3);
        assert_eq!(w.as_bytes(), [3]);
    }
}
