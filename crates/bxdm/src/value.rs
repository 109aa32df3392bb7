//! Typed atomic and array values.
//!
//! These are what distinguish bXDM from the plain XML Infoset: numbers
//! live in machine representation, so the binary codec never converts
//! through ASCII. The lexical (XML Schema) forms here are only used by the
//! *textual* codec — which is precisely the conversion cost the paper
//! measures (§6.2: "the performance bottleneck ... lies at the conversion
//! between floating-point numbers and their ASCII representation").

use std::fmt;

use xbs::TypeCode;

/// Error parsing an XML Schema lexical form back into a typed value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValueParseError {
    /// The schema type that was expected.
    pub expected: TypeCode,
    /// The offending lexical text (truncated for sanity).
    pub text: String,
}

impl fmt::Display for ValueParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cannot parse {:?} from lexical form {:?}",
            self.expected, self.text
        )
    }
}

impl std::error::Error for ValueParseError {}

fn parse_err(expected: TypeCode, text: &str) -> ValueParseError {
    let mut text = text.to_owned();
    text.truncate(64);
    ValueParseError { expected, text }
}

/// A single typed atomic value (the content of a LeafElement or a typed
/// attribute).
#[derive(Debug, Clone, PartialEq)]
pub enum AtomicValue {
    I8(i8),
    U8(u8),
    I16(i16),
    U16(u16),
    I32(i32),
    U32(u32),
    I64(i64),
    U64(u64),
    F32(f32),
    F64(f64),
    Str(String),
    Bool(bool),
}

impl AtomicValue {
    /// Wire type code of this value.
    pub fn type_code(&self) -> TypeCode {
        match self {
            AtomicValue::I8(_) => TypeCode::I8,
            AtomicValue::U8(_) => TypeCode::U8,
            AtomicValue::I16(_) => TypeCode::I16,
            AtomicValue::U16(_) => TypeCode::U16,
            AtomicValue::I32(_) => TypeCode::I32,
            AtomicValue::U32(_) => TypeCode::U32,
            AtomicValue::I64(_) => TypeCode::I64,
            AtomicValue::U64(_) => TypeCode::U64,
            AtomicValue::F32(_) => TypeCode::F32,
            AtomicValue::F64(_) => TypeCode::F64,
            AtomicValue::Str(_) => TypeCode::Str,
            AtomicValue::Bool(_) => TypeCode::Bool,
        }
    }

    /// Append the XML Schema lexical form to `out`.
    ///
    /// Floats use Rust's shortest-round-trip formatting, which satisfies
    /// the paper's transcodability requirement (§4.2): the textual form
    /// parses back to the bit-identical value. Non-finite floats use the
    /// XSD spellings `INF`, `-INF`, `NaN`.
    pub fn write_lexical(&self, out: &mut String) {
        use std::fmt::Write as _;
        match self {
            AtomicValue::I8(v) => {
                let _ = write!(out, "{v}");
            }
            AtomicValue::U8(v) => {
                let _ = write!(out, "{v}");
            }
            AtomicValue::I16(v) => {
                let _ = write!(out, "{v}");
            }
            AtomicValue::U16(v) => {
                let _ = write!(out, "{v}");
            }
            AtomicValue::I32(v) => {
                let _ = write!(out, "{v}");
            }
            AtomicValue::U32(v) => {
                let _ = write!(out, "{v}");
            }
            AtomicValue::I64(v) => {
                let _ = write!(out, "{v}");
            }
            AtomicValue::U64(v) => {
                let _ = write!(out, "{v}");
            }
            AtomicValue::F32(v) => write_f32_lexical(*v, out),
            AtomicValue::F64(v) => write_f64_lexical(*v, out),
            AtomicValue::Str(v) => out.push_str(v),
            AtomicValue::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
        }
    }

    /// The lexical form as an owned string.
    pub fn lexical(&self) -> String {
        let mut s = String::new();
        self.write_lexical(&mut s);
        s
    }

    /// Parse a lexical form as the given schema type.
    pub fn parse_as(code: TypeCode, text: &str) -> Result<AtomicValue, ValueParseError> {
        let t = text.trim();
        Ok(match code {
            TypeCode::I8 => AtomicValue::I8(t.parse().map_err(|_| parse_err(code, text))?),
            TypeCode::U8 => AtomicValue::U8(t.parse().map_err(|_| parse_err(code, text))?),
            TypeCode::I16 => AtomicValue::I16(t.parse().map_err(|_| parse_err(code, text))?),
            TypeCode::U16 => AtomicValue::U16(t.parse().map_err(|_| parse_err(code, text))?),
            TypeCode::I32 => AtomicValue::I32(t.parse().map_err(|_| parse_err(code, text))?),
            TypeCode::U32 => AtomicValue::U32(t.parse().map_err(|_| parse_err(code, text))?),
            TypeCode::I64 => AtomicValue::I64(t.parse().map_err(|_| parse_err(code, text))?),
            TypeCode::U64 => AtomicValue::U64(t.parse().map_err(|_| parse_err(code, text))?),
            TypeCode::F32 => AtomicValue::F32(parse_f32_lexical(t).ok_or_else(|| parse_err(code, text))?),
            TypeCode::F64 => AtomicValue::F64(parse_f64_lexical(t).ok_or_else(|| parse_err(code, text))?),
            TypeCode::Str => AtomicValue::Str(text.to_owned()),
            TypeCode::Bool => match t {
                "true" | "1" => AtomicValue::Bool(true),
                "false" | "0" => AtomicValue::Bool(false),
                _ => return Err(parse_err(code, text)),
            },
        })
    }

    /// Convenience extractors used pervasively by services.
    pub fn as_i32(&self) -> Option<i32> {
        match self {
            AtomicValue::I32(v) => Some(*v),
            _ => None,
        }
    }

    /// Extract an `i64`, widening from narrower integer variants.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            AtomicValue::I8(v) => Some(*v as i64),
            AtomicValue::I16(v) => Some(*v as i64),
            AtomicValue::I32(v) => Some(*v as i64),
            AtomicValue::I64(v) => Some(*v),
            AtomicValue::U8(v) => Some(*v as i64),
            AtomicValue::U16(v) => Some(*v as i64),
            AtomicValue::U32(v) => Some(*v as i64),
            _ => None,
        }
    }

    /// Extract an `f64`, widening from `f32`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            AtomicValue::F32(v) => Some(*v as f64),
            AtomicValue::F64(v) => Some(*v),
            _ => None,
        }
    }

    /// Extract a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            AtomicValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Extract a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            AtomicValue::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// XSD lexical form for `f64` (shortest round-trip, `INF`/`-INF`/`NaN`).
pub fn write_f64_lexical(v: f64, out: &mut String) {
    use std::fmt::Write as _;
    if v.is_nan() {
        out.push_str("NaN");
    } else if v.is_infinite() {
        out.push_str(if v > 0.0 { "INF" } else { "-INF" });
    } else {
        let _ = write!(out, "{v}");
    }
}

/// XSD lexical form for `f32`.
pub fn write_f32_lexical(v: f32, out: &mut String) {
    use std::fmt::Write as _;
    if v.is_nan() {
        out.push_str("NaN");
    } else if v.is_infinite() {
        out.push_str(if v > 0.0 { "INF" } else { "-INF" });
    } else {
        let _ = write!(out, "{v}");
    }
}

/// Parse XSD `double` lexical form.
#[inline]
pub fn parse_f64_lexical(t: &str) -> Option<f64> {
    match t {
        "INF" | "+INF" => Some(f64::INFINITY),
        "-INF" => Some(f64::NEG_INFINITY),
        "NaN" => Some(f64::NAN),
        _ => t.parse().ok(),
    }
}

/// Parse XSD `float` lexical form.
#[inline]
pub fn parse_f32_lexical(t: &str) -> Option<f32> {
    match t {
        "INF" | "+INF" => Some(f32::INFINITY),
        "-INF" => Some(f32::NEG_INFINITY),
        "NaN" => Some(f32::NAN),
        _ => t.parse().ok(),
    }
}

/// A packed, homogeneous one-dimensional array (the content of an
/// ArrayElement).
#[derive(Debug, Clone, PartialEq)]
pub enum ArrayValue {
    I8(Vec<i8>),
    U8(Vec<u8>),
    I16(Vec<i16>),
    U16(Vec<u16>),
    I32(Vec<i32>),
    U32(Vec<u32>),
    I64(Vec<i64>),
    U64(Vec<u64>),
    F32(Vec<f32>),
    F64(Vec<f64>),
}

impl ArrayValue {
    /// Wire type code of the element type.
    pub fn type_code(&self) -> TypeCode {
        match self {
            ArrayValue::I8(_) => TypeCode::I8,
            ArrayValue::U8(_) => TypeCode::U8,
            ArrayValue::I16(_) => TypeCode::I16,
            ArrayValue::U16(_) => TypeCode::U16,
            ArrayValue::I32(_) => TypeCode::I32,
            ArrayValue::U32(_) => TypeCode::U32,
            ArrayValue::I64(_) => TypeCode::I64,
            ArrayValue::U64(_) => TypeCode::U64,
            ArrayValue::F32(_) => TypeCode::F32,
            ArrayValue::F64(_) => TypeCode::F64,
        }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        match self {
            ArrayValue::I8(v) => v.len(),
            ArrayValue::U8(v) => v.len(),
            ArrayValue::I16(v) => v.len(),
            ArrayValue::U16(v) => v.len(),
            ArrayValue::I32(v) => v.len(),
            ArrayValue::U32(v) => v.len(),
            ArrayValue::I64(v) => v.len(),
            ArrayValue::U64(v) => v.len(),
            ArrayValue::F32(v) => v.len(),
            ArrayValue::F64(v) => v.len(),
        }
    }

    /// `true` when the array has no items.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total packed payload size in bytes (excluding alignment/count).
    pub fn byte_len(&self) -> usize {
        let width = self
            .type_code()
            .width()
            .expect("array element types are fixed-width");
        self.len() * width
    }

    /// The item at `idx` as an [`AtomicValue`], for generic (item-by-item)
    /// consumers such as the textual serializer.
    pub fn item(&self, idx: usize) -> Option<AtomicValue> {
        if idx >= self.len() {
            return None;
        }
        Some(match self {
            ArrayValue::I8(v) => AtomicValue::I8(v[idx]),
            ArrayValue::U8(v) => AtomicValue::U8(v[idx]),
            ArrayValue::I16(v) => AtomicValue::I16(v[idx]),
            ArrayValue::U16(v) => AtomicValue::U16(v[idx]),
            ArrayValue::I32(v) => AtomicValue::I32(v[idx]),
            ArrayValue::U32(v) => AtomicValue::U32(v[idx]),
            ArrayValue::I64(v) => AtomicValue::I64(v[idx]),
            ArrayValue::U64(v) => AtomicValue::U64(v[idx]),
            ArrayValue::F32(v) => AtomicValue::F32(v[idx]),
            ArrayValue::F64(v) => AtomicValue::F64(v[idx]),
        })
    }

    /// Borrow as `&[f64]` when that is the element type.
    pub fn as_f64(&self) -> Option<&[f64]> {
        match self {
            ArrayValue::F64(v) => Some(v),
            _ => None,
        }
    }

    /// Borrow as `&[f32]` when that is the element type.
    pub fn as_f32(&self) -> Option<&[f32]> {
        match self {
            ArrayValue::F32(v) => Some(v),
            _ => None,
        }
    }

    /// Borrow as `&[i32]` when that is the element type.
    pub fn as_i32(&self) -> Option<&[i32]> {
        match self {
            ArrayValue::I32(v) => Some(v),
            _ => None,
        }
    }

    /// Borrow as `&[u8]` (raw octet stream) when that is the element type.
    pub fn as_u8(&self) -> Option<&[u8]> {
        match self {
            ArrayValue::U8(v) => Some(v),
            _ => None,
        }
    }

    /// Build an empty array of the given element type.
    ///
    /// Returns `None` for variable-width codes (`Str`) and `Bool`, which
    /// cannot be array element types in bXDM.
    pub fn empty_of(code: TypeCode) -> Option<ArrayValue> {
        Some(match code {
            TypeCode::I8 => ArrayValue::I8(Vec::new()),
            TypeCode::U8 => ArrayValue::U8(Vec::new()),
            TypeCode::I16 => ArrayValue::I16(Vec::new()),
            TypeCode::U16 => ArrayValue::U16(Vec::new()),
            TypeCode::I32 => ArrayValue::I32(Vec::new()),
            TypeCode::U32 => ArrayValue::U32(Vec::new()),
            TypeCode::I64 => ArrayValue::I64(Vec::new()),
            TypeCode::U64 => ArrayValue::U64(Vec::new()),
            TypeCode::F32 => ArrayValue::F32(Vec::new()),
            TypeCode::F64 => ArrayValue::F64(Vec::new()),
            TypeCode::Str | TypeCode::Bool => return None,
        })
    }

    /// Append one parsed lexical item (used when reading an array back
    /// from textual XML).
    pub fn push_lexical(&mut self, text: &str) -> Result<(), ValueParseError> {
        let code = self.type_code();
        let parsed = AtomicValue::parse_as(code, text)?;
        match (self, parsed) {
            (ArrayValue::I8(v), AtomicValue::I8(x)) => v.push(x),
            (ArrayValue::U8(v), AtomicValue::U8(x)) => v.push(x),
            (ArrayValue::I16(v), AtomicValue::I16(x)) => v.push(x),
            (ArrayValue::U16(v), AtomicValue::U16(x)) => v.push(x),
            (ArrayValue::I32(v), AtomicValue::I32(x)) => v.push(x),
            (ArrayValue::U32(v), AtomicValue::U32(x)) => v.push(x),
            (ArrayValue::I64(v), AtomicValue::I64(x)) => v.push(x),
            (ArrayValue::U64(v), AtomicValue::U64(x)) => v.push(x),
            (ArrayValue::F32(v), AtomicValue::F32(x)) => v.push(x),
            (ArrayValue::F64(v), AtomicValue::F64(x)) => v.push(x),
            _ => unreachable!("parse_as returns the requested variant"),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn lexical_ints() {
        assert_eq!(AtomicValue::I32(-42).lexical(), "-42");
        assert_eq!(AtomicValue::U64(u64::MAX).lexical(), u64::MAX.to_string());
        assert_eq!(AtomicValue::Bool(true).lexical(), "true");
        assert_eq!(AtomicValue::Str("hi".into()).lexical(), "hi");
    }

    #[test]
    fn lexical_float_special_values() {
        assert_eq!(AtomicValue::F64(f64::INFINITY).lexical(), "INF");
        assert_eq!(AtomicValue::F64(f64::NEG_INFINITY).lexical(), "-INF");
        assert_eq!(AtomicValue::F64(f64::NAN).lexical(), "NaN");
        assert_eq!(AtomicValue::F32(f32::INFINITY).lexical(), "INF");
    }

    #[test]
    fn parse_special_floats() {
        assert_eq!(
            AtomicValue::parse_as(TypeCode::F64, "INF").unwrap(),
            AtomicValue::F64(f64::INFINITY)
        );
        assert!(matches!(
            AtomicValue::parse_as(TypeCode::F64, "NaN").unwrap(),
            AtomicValue::F64(v) if v.is_nan()
        ));
    }

    #[test]
    fn parse_bool_forms() {
        for t in ["true", "1"] {
            assert_eq!(
                AtomicValue::parse_as(TypeCode::Bool, t).unwrap(),
                AtomicValue::Bool(true)
            );
        }
        for t in ["false", "0"] {
            assert_eq!(
                AtomicValue::parse_as(TypeCode::Bool, t).unwrap(),
                AtomicValue::Bool(false)
            );
        }
        assert!(AtomicValue::parse_as(TypeCode::Bool, "yes").is_err());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(AtomicValue::parse_as(TypeCode::I32, "12.5").is_err());
        assert!(AtomicValue::parse_as(TypeCode::U8, "-1").is_err());
        assert!(AtomicValue::parse_as(TypeCode::F64, "1.2.3").is_err());
    }

    #[test]
    fn parse_trims_whitespace() {
        assert_eq!(
            AtomicValue::parse_as(TypeCode::I32, "  7 ").unwrap(),
            AtomicValue::I32(7)
        );
    }

    #[test]
    fn array_accessors() {
        let a = ArrayValue::F64(vec![1.0, 2.0]);
        assert_eq!(a.len(), 2);
        assert!(!a.is_empty());
        assert_eq!(a.byte_len(), 16);
        assert_eq!(a.type_code(), TypeCode::F64);
        assert_eq!(a.item(1), Some(AtomicValue::F64(2.0)));
        assert_eq!(a.item(2), None);
        assert_eq!(a.as_f64(), Some(&[1.0, 2.0][..]));
        assert_eq!(a.as_i32(), None);
    }

    #[test]
    fn empty_of_excludes_variable_width() {
        assert!(ArrayValue::empty_of(TypeCode::F64).is_some());
        assert!(ArrayValue::empty_of(TypeCode::Str).is_none());
        assert!(ArrayValue::empty_of(TypeCode::Bool).is_none());
    }

    #[test]
    fn push_lexical_builds_array() {
        let mut a = ArrayValue::empty_of(TypeCode::I32).unwrap();
        a.push_lexical("1").unwrap();
        a.push_lexical("-2").unwrap();
        assert_eq!(a.as_i32(), Some(&[1, -2][..]));
        assert!(a.push_lexical("x").is_err());
        assert_eq!(a.len(), 2);
    }

    proptest! {
        // The transcodability property the paper demands (§4.2): textual
        // form round-trips to the bit-identical float.
        #[test]
        fn f64_lexical_roundtrip(v in any::<f64>()) {
            let text = AtomicValue::F64(v).lexical();
            let back = match AtomicValue::parse_as(TypeCode::F64, &text).unwrap() {
                AtomicValue::F64(b) => b,
                _ => unreachable!(),
            };
            // NaN payloads are not preserved through the canonical "NaN"
            // spelling; both being NaN is the XSD-level guarantee.
            if v.is_nan() {
                prop_assert!(back.is_nan());
            } else {
                prop_assert_eq!(back.to_bits(), v.to_bits());
            }
        }

        #[test]
        fn f32_lexical_roundtrip(v in any::<f32>()) {
            let text = AtomicValue::F32(v).lexical();
            let back = match AtomicValue::parse_as(TypeCode::F32, &text).unwrap() {
                AtomicValue::F32(b) => b,
                _ => unreachable!(),
            };
            if v.is_nan() {
                prop_assert!(back.is_nan());
            } else {
                prop_assert_eq!(back.to_bits(), v.to_bits());
            }
        }

        #[test]
        fn i64_lexical_roundtrip(v in any::<i64>()) {
            let text = AtomicValue::I64(v).lexical();
            prop_assert_eq!(
                AtomicValue::parse_as(TypeCode::I64, &text).unwrap(),
                AtomicValue::I64(v)
            );
        }
    }
}
