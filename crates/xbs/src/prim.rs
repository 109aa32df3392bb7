//! The [`Primitive`] trait: the closed set of fundamental types XBS packs.
//!
//! Implemented for the ten numeric types the paper's XBS layer supports
//! (1/2/4/8-byte signed and unsigned integers, 4/8-byte floats). The trait
//! is sealed — BXSA's wire format depends on this set being closed.

use crate::byteorder::ByteOrder;
use crate::typecode::TypeCode;

mod sealed {
    pub trait Sealed {}
}

/// A fixed-width numeric type that XBS can pack and align.
///
/// All methods are branch-free per element; the generic array paths in
/// [`crate::writer`] and [`crate::reader`] monomorphize per type so the
/// per-element byte swap compiles to a `bswap`/`mov`.
pub trait Primitive: sealed::Sealed + Copy + PartialEq + std::fmt::Debug + 'static {
    /// Size (and required alignment) in bytes.
    const WIDTH: usize;
    /// Wire type code for a scalar of this type.
    const TYPE_CODE: TypeCode;

    /// Write `self` into `out[..Self::WIDTH]` in the given order.
    fn write_bytes(self, order: ByteOrder, out: &mut [u8]);
    /// Read a value from `inp[..Self::WIDTH]` in the given order.
    fn read_bytes(order: ByteOrder, inp: &[u8]) -> Self;
}

macro_rules! impl_primitive {
    ($($t:ty => $code:expr),+ $(,)?) => {$(
        impl sealed::Sealed for $t {}
        impl Primitive for $t {
            const WIDTH: usize = std::mem::size_of::<$t>();
            const TYPE_CODE: TypeCode = $code;

            #[inline(always)]
            fn write_bytes(self, order: ByteOrder, out: &mut [u8]) {
                let bytes = match order {
                    ByteOrder::Little => self.to_le_bytes(),
                    ByteOrder::Big => self.to_be_bytes(),
                };
                out[..Self::WIDTH].copy_from_slice(&bytes);
            }

            #[inline(always)]
            fn read_bytes(order: ByteOrder, inp: &[u8]) -> Self {
                let bytes: [u8; std::mem::size_of::<$t>()] =
                    inp[..Self::WIDTH].try_into().expect("caller checked length");
                match order {
                    ByteOrder::Little => <$t>::from_le_bytes(bytes),
                    ByteOrder::Big => <$t>::from_be_bytes(bytes),
                }
            }
        }
    )+};
}

impl_primitive! {
    i8  => TypeCode::I8,
    u8  => TypeCode::U8,
    i16 => TypeCode::I16,
    u16 => TypeCode::U16,
    i32 => TypeCode::I32,
    u32 => TypeCode::U32,
    i64 => TypeCode::I64,
    u64 => TypeCode::U64,
    f32 => TypeCode::F32,
    f64 => TypeCode::F64,
}

/// The bytes of `values` in memory, which are their wire bytes in the
/// machine's native byte order.
#[inline]
pub fn bytes_of<T: Primitive>(values: &[T]) -> &[u8] {
    // SAFETY: `T` is one of the sealed plain numeric types above: no
    // padding, every byte initialized. A `u8` view needs alignment 1,
    // covers exactly `size_of_val(values)` bytes of the same allocation,
    // and borrows `values` for its whole lifetime.
    unsafe {
        std::slice::from_raw_parts(values.as_ptr().cast::<u8>(), std::mem::size_of_val(values))
    }
}

/// The bytes of `values` in memory, writable: filling them with wire
/// bytes in the machine's native byte order fills `values`.
#[inline]
pub fn bytes_of_mut<T: Primitive>(values: &mut [T]) -> &mut [u8] {
    // SAFETY: as for `bytes_of`, and every byte pattern is a valid `T`,
    // so any bytes written through the view leave valid values. The view
    // borrows `values` mutably for its whole lifetime.
    unsafe {
        std::slice::from_raw_parts_mut(
            values.as_mut_ptr().cast::<u8>(),
            std::mem::size_of_val(values),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_one<T: Primitive>(v: T) {
        for order in [ByteOrder::Little, ByteOrder::Big] {
            let mut buf = [0u8; 8];
            v.write_bytes(order, &mut buf);
            assert_eq!(T::read_bytes(order, &buf), v);
        }
    }

    #[test]
    fn scalar_roundtrips() {
        roundtrip_one(-5i8);
        roundtrip_one(250u8);
        roundtrip_one(-30_000i16);
        roundtrip_one(60_000u16);
        roundtrip_one(i32::MIN);
        roundtrip_one(u32::MAX);
        roundtrip_one(i64::MIN + 1);
        roundtrip_one(u64::MAX);
        roundtrip_one(f32::MIN_POSITIVE);
        roundtrip_one(std::f64::consts::PI);
    }

    #[test]
    fn endianness_actually_differs() {
        let mut le = [0u8; 4];
        let mut be = [0u8; 4];
        0x01020304u32.write_bytes(ByteOrder::Little, &mut le);
        0x01020304u32.write_bytes(ByteOrder::Big, &mut be);
        assert_eq!(le, [4, 3, 2, 1]);
        assert_eq!(be, [1, 2, 3, 4]);
    }

    #[test]
    fn widths_match_sizes() {
        assert_eq!(<i8 as Primitive>::WIDTH, 1);
        assert_eq!(<u16 as Primitive>::WIDTH, 2);
        assert_eq!(<f32 as Primitive>::WIDTH, 4);
        assert_eq!(<f64 as Primitive>::WIDTH, 8);
    }

    #[test]
    fn byte_view_is_native_order_wire_bytes() {
        let values = [0x0102_0304u32, 0xa0b0_c0d0, 7];
        let native = ByteOrder::native();
        let mut expect = Vec::new();
        for v in values {
            let mut b = [0u8; 4];
            v.write_bytes(native, &mut b);
            expect.extend_from_slice(&b);
        }
        assert_eq!(bytes_of(&values), &expect[..]);
        assert!(bytes_of::<f64>(&[]).is_empty());
    }

    #[test]
    fn writable_byte_view_fills_native_order_values() {
        let native = ByteOrder::native();
        let mut values = [0u32; 3];
        let mut wire = Vec::new();
        for v in [0x0102_0304u32, 0xa0b0_c0d0, 7] {
            let mut b = [0u8; 4];
            v.write_bytes(native, &mut b);
            wire.extend_from_slice(&b);
        }
        bytes_of_mut(&mut values).copy_from_slice(&wire);
        assert_eq!(values, [0x0102_0304, 0xa0b0_c0d0, 7]);
        assert!(bytes_of_mut::<f64>(&mut []).is_empty());
    }

    #[test]
    fn nan_roundtrips_bitwise() {
        let nan = f64::from_bits(0x7ff8_dead_beef_0001);
        let mut buf = [0u8; 8];
        nan.write_bytes(ByteOrder::Big, &mut buf);
        let back = f64::read_bytes(ByteOrder::Big, &buf);
        assert_eq!(back.to_bits(), nan.to_bits());
    }
}
