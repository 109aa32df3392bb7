//! Deserializing XBS streams.

use crate::byteorder::ByteOrder;
use crate::error::{XbsError, XbsResult};
use crate::prim::Primitive;
use crate::vls;

/// A run of `len` stream bytes held outside a reader's buffer: they
/// belong right before the buffer's byte at `at`.
///
/// A receiver that puts a large packed run straight where its values end
/// up leaves a gap in the buffer it parses; a reader given the gaps
/// counts them in its stream offset, as [`XbsWriter::defer_packed`]
/// counts a deferred run, so alignment and declared sizes are checked on
/// the same offsets as in the stream whole.
///
/// [`XbsWriter::defer_packed`]: crate::XbsWriter::defer_packed
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gap {
    /// Buffer index the run belongs before.
    pub at: usize,
    /// Stream bytes in the run.
    pub len: usize,
}

/// A cursor over an XBS byte stream.
///
/// The reader tracks an absolute offset into the stream so it can
/// reconstruct the alignment decisions the writer made. For the reads to
/// line up, the buffer passed in must start where the writer's stream
/// started (BXSA documents are self-contained, so this is the natural
/// usage). A reader made [`with_gaps`](XbsReader::with_gaps) parses a
/// stream some of whose runs are held elsewhere: its offsets are stream
/// offsets, and a read that reaches into a gap is an [`XbsError::Gap`].
#[derive(Debug, Clone)]
pub struct XbsReader<'a> {
    buf: &'a [u8],
    pos: usize,
    order: ByteOrder,
    gaps: &'a [Gap],
    /// The first gap not yet passed.
    next: usize,
    /// Bytes of the gaps passed: the stream offset is `pos + passed`.
    passed: usize,
    /// Bytes of the gaps not yet passed.
    ahead: usize,
}

impl<'a> XbsReader<'a> {
    /// Wrap `buf`, starting at offset zero, decoding in `order`.
    pub fn new(buf: &'a [u8], order: ByteOrder) -> XbsReader<'a> {
        XbsReader::with_gaps(buf, order, &[])
    }

    /// Wrap `buf`, whose stream also holds the runs `gaps` (in stream
    /// order, each `at` within the buffer), starting at offset zero.
    pub fn with_gaps(buf: &'a [u8], order: ByteOrder, gaps: &'a [Gap]) -> XbsReader<'a> {
        XbsReader {
            buf,
            pos: 0,
            order,
            gaps,
            next: 0,
            passed: 0,
            ahead: gaps.iter().map(|g| g.len).sum(),
        }
    }

    /// Byte order used for numeric decoding.
    #[inline]
    pub fn order(&self) -> ByteOrder {
        self.order
    }

    /// Switch byte order mid-stream (BXSA records the order per frame).
    #[inline]
    pub fn set_order(&mut self, order: ByteOrder) {
        self.order = order;
    }

    /// Current absolute offset in the stream.
    #[inline]
    pub fn position(&self) -> usize {
        self.pos + self.passed
    }

    /// Move the cursor to an absolute stream offset (used by
    /// skip-scans), passing any gaps on the way.
    ///
    /// The offset may be up to and including the end of the stream, but
    /// not inside a gap.
    pub fn seek(&mut self, pos: usize) -> XbsResult<()> {
        if pos < self.position() {
            self.ahead += self.passed;
            self.passed = 0;
            self.next = 0;
        }
        while let Some(gap) = self.gaps.get(self.next) {
            let start = gap.at + self.passed;
            if pos < start + gap.len {
                if pos > start {
                    return Err(XbsError::Gap { offset: start });
                }
                break;
            }
            self.passed += gap.len;
            self.ahead -= gap.len;
            self.next += 1;
        }
        let at = pos - self.passed;
        if at > self.buf.len() {
            return Err(XbsError::UnexpectedEof {
                offset: self.buf.len() + self.passed,
                needed: at - self.buf.len(),
            });
        }
        self.pos = at;
        Ok(())
    }

    /// Stream bytes left before the end of the stream (gaps included).
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos + self.ahead
    }

    /// `true` when the cursor has consumed the whole stream.
    #[inline]
    pub fn is_at_end(&self) -> bool {
        self.remaining() == 0
    }

    /// The entire underlying buffer (not just the unread part).
    #[inline]
    pub fn buffer(&self) -> &'a [u8] {
        self.buf
    }

    /// The unread buffer bytes up to the next gap (or the buffer's end).
    #[inline]
    pub fn unread(&self) -> &'a [u8] {
        let end = self.gaps.get(self.next).map_or(self.buf.len(), |g| g.at);
        &self.buf[self.pos..end]
    }

    /// The next gap, as its index in the reader's gap list and its
    /// length, when it starts at the cursor.
    #[inline]
    pub fn gap_here(&self) -> Option<(usize, usize)> {
        self.gaps
            .get(self.next)
            .filter(|g| g.at == self.pos)
            .map(|g| (self.next, g.len))
    }

    /// Step over the gap at the cursor, counting its bytes in the stream
    /// offset; `false` (and nothing moves) when no gap starts here.
    pub fn pass_gap(&mut self) -> bool {
        let Some((index, len)) = self.gap_here() else {
            return false;
        };
        self.next = index + 1;
        self.passed += len;
        self.ahead -= len;
        true
    }

    /// Step over `n` bytes left unread: buffer bytes, or exactly the gap
    /// at the cursor when it is `n` bytes long.
    pub fn skip_run(&mut self, n: usize) -> XbsResult<()> {
        if n > 0 && self.gap_here().is_some_and(|(_, len)| len == n) {
            self.pass_gap();
            return Ok(());
        }
        self.read_bytes(n).map(|_| ())
    }

    /// An end-of-buffer error from a read of the unread bytes is a gap
    /// when the stream goes on past them.
    fn cut(&self, e: XbsError) -> XbsError {
        match e {
            XbsError::UnexpectedEof { .. } if self.ahead > 0 => XbsError::Gap {
                offset: self.position(),
            },
            e => e,
        }
    }

    fn need(&self, n: usize) -> XbsResult<()> {
        if self.remaining() < n {
            Err(XbsError::UnexpectedEof {
                offset: self.position(),
                needed: n - self.remaining(),
            })
        } else if self.unread().len() < n {
            Err(XbsError::Gap {
                offset: self.position(),
            })
        } else {
            Ok(())
        }
    }

    /// Advance past zero padding so the stream offset is
    /// `align`-aligned.
    ///
    /// Fails if any skipped byte is non-zero (a desynchronized stream) or
    /// if the padding runs past the end of the buffer.
    pub fn align(&mut self, align: usize) -> XbsResult<()> {
        let at = self.position();
        let pad = crate::align_up(at, align) - at;
        self.need(pad)?;
        if let Some(i) = self.buf[self.pos..self.pos + pad]
            .iter()
            .position(|&b| b != 0)
        {
            return Err(XbsError::BadPadding { offset: at + i });
        }
        self.pos += pad;
        Ok(())
    }

    /// Read `n` raw bytes.
    pub fn read_bytes(&mut self, n: usize) -> XbsResult<&'a [u8]> {
        self.need(n)?;
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Read one raw byte.
    #[inline]
    pub fn read_raw_u8(&mut self) -> XbsResult<u8> {
        self.need(1)?;
        let b = self.buf[self.pos];
        self.pos += 1;
        Ok(b)
    }

    /// Read a variable-length size integer.
    pub fn read_vls(&mut self) -> XbsResult<u64> {
        let (value, used) =
            vls::read_vls(self.unread(), self.position()).map_err(|e| self.cut(e))?;
        self.pos += used;
        Ok(value)
    }

    /// Read a possibly padded (non-canonical) VLS — the BXSA frame-size
    /// field only.
    pub fn read_vls_padded(&mut self) -> XbsResult<u64> {
        let (value, used) =
            vls::read_vls_padded(self.unread(), self.position()).map_err(|e| self.cut(e))?;
        self.pos += used;
        Ok(value)
    }

    /// Read a VLS and validate it as a usize-sized count against the bytes
    /// remaining (`bytes_per_item` ≥ 1 prevents count-overflow attacks on
    /// preallocation).
    pub fn read_count(&mut self, bytes_per_item: usize) -> XbsResult<usize> {
        let offset = self.position();
        let declared = self.read_vls()?;
        let max_items = (self.remaining() / bytes_per_item.max(1)) as u64;
        if declared > max_items {
            return Err(XbsError::LengthOverrun {
                offset,
                declared,
                available: self.remaining(),
            });
        }
        Ok(declared as usize)
    }

    /// Read a VLS-length-prefixed UTF-8 string.
    ///
    /// Invalid UTF-8 is replaced rather than erroring at this layer; the
    /// layers above (XML names) apply their own validation.
    pub fn read_str(&mut self) -> XbsResult<&'a str> {
        let len = self.read_count(1)?;
        let bytes = self.read_bytes(len)?;
        std::str::from_utf8(bytes).map_err(|_| XbsError::BadPadding {
            offset: self.position() - len,
        })
    }

    /// Read one aligned fixed-width value.
    pub fn read<T: Primitive>(&mut self) -> XbsResult<T> {
        self.align(T::WIDTH)?;
        self.need(T::WIDTH)?;
        let v = T::read_bytes(self.order, &self.buf[self.pos..]);
        self.pos += T::WIDTH;
        Ok(v)
    }

    /// Read `count` aligned packed values into a fresh `Vec`.
    pub fn read_packed<T: Primitive>(&mut self, count: usize) -> XbsResult<Vec<T>> {
        let mut out = Vec::new();
        self.read_packed_into(count, &mut out)?;
        Ok(out)
    }

    /// Read `count` aligned packed values into `out`, reusing its
    /// capacity (clear-and-refill). The decode-direction counterpart of
    /// the writer's buffer reuse: steady-state array decode performs no
    /// heap allocation once `out` has grown to the working-set size.
    ///
    /// When the stream's byte order matches the machine's, the payload is
    /// moved with one bounds-checked bulk copy instead of a per-element
    /// conversion loop.
    pub fn read_packed_into<T: Primitive>(
        &mut self,
        count: usize,
        out: &mut Vec<T>,
    ) -> XbsResult<()> {
        self.align(T::WIDTH)?;
        let total = count.checked_mul(T::WIDTH).ok_or(XbsError::LengthOverrun {
            offset: self.position(),
            declared: count as u64,
            available: self.remaining(),
        })?;
        self.need(total)?;
        let src = &self.buf[self.pos..self.pos + total];
        out.clear();
        out.reserve(count);
        if self.order.is_native() {
            // SAFETY ARGUMENT: `T` is a sealed plain-numeric `Primitive`
            // (no padding bytes, every bit pattern valid), `reserve`
            // guarantees capacity for `count` elements, and `need`
            // bounds-checked that `src` holds exactly `count * T::WIDTH`
            // payload bytes in native byte order. The byte-wise copy
            // therefore fully initializes the first `count` elements, and
            // `set_len` publishes only those.
            unsafe {
                std::ptr::copy_nonoverlapping(src.as_ptr(), out.as_mut_ptr().cast::<u8>(), total);
                out.set_len(count);
            }
        } else {
            out.extend(
                src.chunks_exact(T::WIDTH)
                    .map(|chunk| T::read_bytes(self.order, chunk)),
            );
        }
        self.pos += total;
        Ok(())
    }

    /// Borrow `count` packed values in place, without copying.
    ///
    /// Returns `None` (instead of falling back silently) when a zero-copy
    /// view is impossible: the stream's byte order is not the machine's,
    /// or the buffer happens to be mapped at an address where the payload
    /// is not sufficiently aligned for `T`. Callers fall back to
    /// [`XbsReader::read_packed`]. On success the cursor advances past the
    /// payload.
    ///
    /// This is the paper's "large arrays can be read ... by simply using
    /// memory-mapped file I/O ... avoiding an extra copy" (§4.1), realized
    /// with a safe `align_to` view.
    pub fn read_packed_zero_copy<T: Primitive>(
        &mut self,
        count: usize,
    ) -> XbsResult<Option<&'a [T]>> {
        self.align(T::WIDTH)?;
        let total = count.checked_mul(T::WIDTH).ok_or(XbsError::LengthOverrun {
            offset: self.position(),
            declared: count as u64,
            available: self.remaining(),
        })?;
        self.need(total)?;
        if !self.order.is_native() {
            return Ok(None);
        }
        let src = &self.buf[self.pos..self.pos + total];
        // SAFETY ARGUMENT (all-safe code): `align_to` splits the byte
        // slice into (unaligned head, aligned middle, tail). T is a plain
        // numeric type, so reinterpreting fully-aligned bytes is valid for
        // it; if the head is non-empty the mapping address was unaligned
        // and we decline the zero-copy path.
        let (head, mid, _tail) = unsafe { src.align_to::<T>() };
        if !head.is_empty() || mid.len() != count {
            return Ok(None);
        }
        self.pos += total;
        Ok(Some(mid))
    }

    /// Read a counted packed array (VLS count + aligned elements).
    pub fn read_array<T: Primitive>(&mut self) -> XbsResult<Vec<T>> {
        let count = self.read_count(T::WIDTH)?;
        self.read_packed(count)
    }

    /// Read a counted packed array into `out`, reusing its capacity.
    pub fn read_array_into<T: Primitive>(&mut self, out: &mut Vec<T>) -> XbsResult<()> {
        let count = self.read_count(T::WIDTH)?;
        self.read_packed_into(count, out)
    }
}

macro_rules! concrete_reads {
    ($(($scalar:ident, $array:ident, $t:ty)),+ $(,)?) => {
        impl<'a> XbsReader<'a> {
            $(
                #[doc = concat!("Read one aligned `", stringify!($t), "`.")]
                #[inline]
                pub fn $scalar(&mut self) -> XbsResult<$t> {
                    self.read::<$t>()
                }

                #[doc = concat!("Read a counted packed array of `", stringify!($t), "`.")]
                #[inline]
                pub fn $array(&mut self) -> XbsResult<Vec<$t>> {
                    self.read_array::<$t>()
                }
            )+
        }
    };
}

concrete_reads! {
    (read_i8, read_array_i8, i8),
    (read_u8, read_array_u8, u8),
    (read_i16, read_array_i16, i16),
    (read_u16, read_array_u16, u16),
    (read_i32, read_array_i32, i32),
    (read_u32, read_array_u32, u32),
    (read_i64, read_array_i64, i64),
    (read_u64, read_array_u64, u64),
    (read_f32, read_array_f32, f32),
    (read_f64, read_array_f64, f64),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::XbsWriter;
    use proptest::prelude::*;

    #[test]
    fn eof_on_empty() {
        let mut r = XbsReader::new(&[], ByteOrder::Little);
        assert!(matches!(
            r.read_u32(),
            Err(XbsError::UnexpectedEof { .. })
        ));
    }

    #[test]
    fn bad_padding_detected() {
        // One byte 0xFF then an f64: reader must align over 7 pad bytes
        // and reject the non-zero one.
        let mut buf = vec![0x01u8, 0xff];
        buf.extend_from_slice(&[0u8; 14]);
        let mut r = XbsReader::new(&buf, ByteOrder::Little);
        r.read_raw_u8().unwrap();
        let e = r.read_f64().unwrap_err();
        assert_eq!(e, XbsError::BadPadding { offset: 1 });
    }

    #[test]
    fn count_overrun_rejected() {
        let mut w = XbsWriter::new(ByteOrder::Little);
        w.put_vls(1_000_000); // claims a million elements
        w.put_f64(1.0);
        let buf = w.into_bytes();
        let mut r = XbsReader::new(&buf, ByteOrder::Little);
        assert!(matches!(
            r.read_array_f64(),
            Err(XbsError::LengthOverrun { .. })
        ));
    }

    #[test]
    fn zero_copy_native_order() {
        let data: Vec<f64> = (0..100).map(|i| i as f64 * 0.5).collect();
        let mut w = XbsWriter::new(ByteOrder::native());
        w.put_raw_u8(0x42); // force some initial misalignment
        w.put_packed(&data);
        let buf = w.into_bytes();
        let mut r = XbsReader::new(&buf, ByteOrder::native());
        r.read_raw_u8().unwrap();
        // The buffer itself is Vec<u8>-allocated; alignment of the Vec's
        // base address is not guaranteed to be 8, so accept either
        // outcome but verify correctness when zero-copy succeeds.
        match r.read_packed_zero_copy::<f64>(data.len()).unwrap() {
            Some(view) => assert_eq!(view, &data[..]),
            None => {
                let copied = r.read_packed::<f64>(data.len()).unwrap();
                assert_eq!(copied, data);
            }
        }
        assert!(r.is_at_end());
    }

    #[test]
    fn zero_copy_declines_foreign_order() {
        let foreign = match ByteOrder::native() {
            ByteOrder::Little => ByteOrder::Big,
            ByteOrder::Big => ByteOrder::Little,
        };
        let mut w = XbsWriter::new(foreign);
        w.put_packed(&[1.0f64, 2.0]);
        let buf = w.into_bytes();
        let mut r = XbsReader::new(&buf, foreign);
        assert_eq!(r.read_packed_zero_copy::<f64>(2).unwrap(), None);
        // Fallback still decodes correctly.
        assert_eq!(r.read_packed::<f64>(2).unwrap(), vec![1.0, 2.0]);
    }

    #[test]
    fn packed_into_reuses_capacity_both_orders() {
        let data: Vec<f64> = (0..64).map(|i| i as f64 * 1.25).collect();
        for order in [ByteOrder::Little, ByteOrder::Big] {
            let mut w = XbsWriter::new(order);
            w.put_packed(&data);
            w.put_packed(&data);
            let buf = w.into_bytes();
            let mut r = XbsReader::new(&buf, order);
            let mut out: Vec<f64> = Vec::new();
            r.read_packed_into(data.len(), &mut out).unwrap();
            assert_eq!(out, data);
            let ptr = out.as_ptr();
            // Second fill of the same size must not reallocate.
            r.read_packed_into(data.len(), &mut out).unwrap();
            assert_eq!(out, data);
            assert_eq!(out.as_ptr(), ptr, "refill of equal size must reuse the buffer");
        }
    }

    #[test]
    fn packed_into_error_leaves_out_untouched() {
        let mut w = XbsWriter::new(ByteOrder::Little);
        w.put_packed(&[1.0f64, 2.0]);
        let buf = w.into_bytes();
        let mut r = XbsReader::new(&buf[..buf.len() - 1], ByteOrder::Little);
        let mut out = vec![9.0f64; 4];
        assert!(r.read_packed_into(2, &mut out).is_err());
        // The error path must not leave stale values visible.
        assert_eq!(r.position(), 0);
        assert_eq!(out, vec![9.0f64; 4]);
    }

    /// A stream read with a packed run held out of line: the reader
    /// counts the gap in its offsets, so alignment lines up as in the
    /// whole stream, and refuses to read into it.
    #[test]
    fn gaps_count_in_the_stream_offset() {
        let mut w = crate::XbsWriter::new(ByteOrder::native());
        w.put_u8(7);
        let run = [1.5f64, -2.0, 3.25];
        w.put_array(&run);
        w.put_u16(0xbeef);
        let whole = w.into_bytes();
        // The run's payload starts after the count and the padding.
        let payload_at = crate::align_up(2, 8);
        let mut head = whole[..payload_at].to_vec();
        head.extend_from_slice(&whole[payload_at + 24..]);
        let gaps = [Gap {
            at: payload_at,
            len: 24,
        }];
        let mut r = XbsReader::with_gaps(&head, ByteOrder::native(), &gaps);
        assert_eq!(r.remaining(), whole.len());
        assert_eq!(r.read_u8().unwrap(), 7);
        assert_eq!(r.read_count(8).unwrap(), 3);
        r.align(8).unwrap();
        assert_eq!(r.gap_here(), Some((0, 24)));
        let mut copy = r.clone();
        assert!(
            matches!(copy.read_bytes(1), Err(XbsError::Gap { offset }) if offset == payload_at)
        );
        assert!(matches!(
            copy.read_packed::<f64>(3),
            Err(XbsError::Gap { .. })
        ));
        r.skip_run(24).unwrap();
        assert_eq!(r.position(), payload_at + 24);
        assert_eq!(r.read_u16().unwrap(), 0xbeef);
        assert!(r.is_at_end());
        // Seeks translate stream offsets, back and forth across the gap,
        // and refuse to land inside it.
        r.seek(payload_at + 24).unwrap();
        assert_eq!(r.read_u16().unwrap(), 0xbeef);
        r.seek(1).unwrap();
        assert_eq!(r.read_count(8).unwrap(), 3);
        assert!(matches!(r.seek(payload_at + 8), Err(XbsError::Gap { .. })));
        assert!(r.seek(whole.len() + 1).is_err());
    }

    /// A read cut short by a gap is a gap, not the end of the input; a
    /// gap at the buffer's end stands for bytes still to come.
    #[test]
    fn a_read_cut_by_a_gap_is_a_gap() {
        let head = [0x80u8];
        let tail = [Gap { at: 1, len: 5 }];
        let mut r = XbsReader::with_gaps(&head, ByteOrder::Little, &tail);
        assert!(matches!(r.read_vls(), Err(XbsError::Gap { .. })));
        assert!(matches!(
            r.read_bytes(7),
            Err(XbsError::UnexpectedEof { .. })
        ));
        let mut flat = XbsReader::new(&head, ByteOrder::Little);
        assert!(matches!(
            flat.read_vls(),
            Err(XbsError::UnexpectedEof { .. })
        ));
        assert!(!flat.pass_gap());
    }

    #[test]
    fn seek_bounds() {
        let buf = [0u8; 4];
        let mut r = XbsReader::new(&buf, ByteOrder::Little);
        r.seek(4).unwrap();
        assert!(r.is_at_end());
        assert!(r.seek(5).is_err());
    }

    #[test]
    fn str_roundtrip() {
        let mut w = XbsWriter::new(ByteOrder::Little);
        w.put_str("soap:Envelope");
        let buf = w.into_bytes();
        let mut r = XbsReader::new(&buf, ByteOrder::Little);
        assert_eq!(r.read_str().unwrap(), "soap:Envelope");
    }

    proptest! {
        #[test]
        fn array_roundtrip_f64(data in proptest::collection::vec(any::<f64>(), 0..200)) {
            for order in [ByteOrder::Little, ByteOrder::Big] {
                let mut w = XbsWriter::new(order);
                w.put_array_f64(&data);
                let buf = w.into_bytes();
                let mut r = XbsReader::new(&buf, order);
                let back = r.read_array_f64().unwrap();
                prop_assert_eq!(back.len(), data.len());
                for (a, b) in back.iter().zip(&data) {
                    prop_assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }

        #[test]
        fn array_roundtrip_i32(data in proptest::collection::vec(any::<i32>(), 0..200)) {
            for order in [ByteOrder::Little, ByteOrder::Big] {
                let mut w = XbsWriter::new(order);
                w.put_array_i32(&data);
                let buf = w.into_bytes();
                let mut r = XbsReader::new(&buf, order);
                prop_assert_eq!(r.read_array_i32().unwrap(), data.clone());
            }
        }

        #[test]
        fn interleaved_scalars_roundtrip(
            a in any::<u8>(), b in any::<f32>(), c in any::<i64>(), d in any::<u16>()
        ) {
            let mut w = XbsWriter::new(ByteOrder::Big);
            w.put_u8(a);
            w.put_f32(b);
            w.put_i64(c);
            w.put_u16(d);
            let buf = w.into_bytes();
            let mut r = XbsReader::new(&buf, ByteOrder::Big);
            prop_assert_eq!(r.read_u8().unwrap(), a);
            prop_assert_eq!(r.read_f32().unwrap().to_bits(), b.to_bits());
            prop_assert_eq!(r.read_i64().unwrap(), c);
            prop_assert_eq!(r.read_u16().unwrap(), d);
        }
    }
}
