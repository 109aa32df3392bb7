//! Fast numeric text kernels for the XML hot path.
//!
//! The paper's central measurement (§6, Table 2) is that SOAP spends its
//! time converting doubles to and from ASCII, not in XML structure. The
//! seed codebase leaned on `format!` and `str::parse` for that inner
//! loop; this module replaces both with from-scratch kernels:
//!
//! * [`write_u64`] / [`write_i64`] — branch-light integer itoa using a
//!   two-digits-at-a-time lookup table.
//! * [`write_f64`] — shortest-round-trip binary-to-decimal conversion:
//!   an exact short-decimal path for values with few fractional digits
//!   and the standard formatter's exact digits for the rest, so both
//!   round-trip fidelity (the paper's "transcodability" requirement) and
//!   shortness are unconditional.
//! * [`parse_u64`] / [`parse_i64`] — digit parsing that consumes eight
//!   ASCII digits per step with SWAR arithmetic instead of one per
//!   branchy loop iteration.
//! * [`parse_f64`] — decimal-to-binary conversion with the Clinger fast
//!   path (exact double arithmetic when the mantissa fits in 53 bits and
//!   the power of ten is exactly representable), deferring to the
//!   standard library outside that window.
//!
//! The Eisel–Lemire powers of five are computed exactly at first use
//! with a tiny big-integer (no baked-in table of magic constants), then
//! cached in a `OnceLock` — after warmup the kernels allocate nothing.

use std::sync::OnceLock;

/// Powers of ten exactly representable in an `f64` (up to `1e22`).
const POW10_F64: [f64; 23] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
];

/// All two-digit decimal pairs, "00" through "99".
const DEC_PAIRS: &[u8; 200] = b"0001020304050607080910111213141516171819\
2021222324252627282930313233343536373839\
4041424344454647484950515253545556575859\
6061626364656667686970717273747576777879\
8081828384858687888990919293949596979899";

// ---------------------------------------------------------------------------
// Integer formatting
// ---------------------------------------------------------------------------

/// Append the decimal form of `v` to `out`.
#[inline]
pub fn write_u64(mut v: u64, out: &mut String) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    while v >= 100 {
        let pair = (v % 100) as usize * 2;
        v /= 100;
        i -= 2;
        buf[i] = DEC_PAIRS[pair];
        buf[i + 1] = DEC_PAIRS[pair + 1];
    }
    if v >= 10 {
        let pair = v as usize * 2;
        i -= 2;
        buf[i] = DEC_PAIRS[pair];
        buf[i + 1] = DEC_PAIRS[pair + 1];
    } else {
        i -= 1;
        buf[i] = b'0' + v as u8;
    }
    // The buffer holds only ASCII digits, so this cannot fail.
    out.push_str(std::str::from_utf8(&buf[i..]).unwrap());
}

/// Append the decimal form of `v` to `out`.
#[inline]
pub fn write_i64(v: i64, out: &mut String) {
    if v < 0 {
        out.push('-');
    }
    write_u64(v.unsigned_abs(), out);
}

// ---------------------------------------------------------------------------
// Integer parsing (SWAR)
// ---------------------------------------------------------------------------

/// `true` if all eight bytes of the little-endian word are ASCII digits.
#[inline]
fn is_8_digits(chunk: u64) -> bool {
    // Per byte: adding 0x46 carries into bit 7 only for bytes > 0x39, and
    // subtracting 0x30 borrows bit 7 only for bytes < 0x30.
    let over = chunk.wrapping_add(0x4646_4646_4646_4646);
    let under = chunk.wrapping_sub(0x3030_3030_3030_3030);
    (over | under) & 0x8080_8080_8080_8080 == 0
}

/// Combine eight ASCII digits (little-endian word, most significant digit
/// in the lowest byte) into their numeric value without per-digit loops.
#[inline]
fn fold_8_digits(chunk: u64) -> u64 {
    let digits = chunk.wrapping_sub(0x3030_3030_3030_3030);
    // Pairwise combine: each byte pair a,b becomes 10a+b in the second
    // byte, then pairs of pairs, then the two four-digit halves.
    let pairs = digits.wrapping_mul(10).wrapping_add(digits >> 8);
    const MASK: u64 = 0x0000_00ff_0000_00ff;
    let quads = (pairs & MASK).wrapping_mul(100 + ((1_000_000u64) << 32));
    let halves = ((pairs >> 16) & MASK).wrapping_mul(1 + ((10_000u64) << 32));
    (quads.wrapping_add(halves) >> 32) as u32 as u64
}

/// Parse a run of ASCII digits at the front of `bytes`, eating eight at a
/// time. Returns the accumulated value and the number of bytes consumed,
/// or `None` if the run overflows a `u64`.
#[inline]
fn eat_digits(bytes: &[u8], mut acc: u64) -> Option<(u64, usize)> {
    let mut i = 0;
    while bytes.len() - i >= 8 {
        let chunk = u64::from_le_bytes(bytes[i..i + 8].try_into().unwrap());
        if !is_8_digits(chunk) {
            break;
        }
        acc = acc
            .checked_mul(100_000_000)?
            .checked_add(fold_8_digits(chunk))?;
        i += 8;
    }
    while i < bytes.len() && bytes[i].is_ascii_digit() {
        acc = acc
            .checked_mul(10)?
            .checked_add((bytes[i] - b'0') as u64)?;
        i += 1;
    }
    Some((acc, i))
}

/// Parse an unsigned decimal integer; the whole string must be digits.
#[inline]
pub fn parse_u64(s: &str) -> Option<u64> {
    let b = s.as_bytes();
    if b.is_empty() {
        return None;
    }
    let (v, used) = eat_digits(b, 0)?;
    if used == b.len() {
        Some(v)
    } else {
        None
    }
}

/// Parse a signed decimal integer with optional `+`/`-` sign.
#[inline]
pub fn parse_i64(s: &str) -> Option<i64> {
    let b = s.as_bytes();
    let (neg, rest) = match b.first()? {
        b'-' => (true, &b[1..]),
        b'+' => (false, &b[1..]),
        _ => (false, b),
    };
    if rest.is_empty() {
        return None;
    }
    let (mag, used) = eat_digits(rest, 0)?;
    if used != rest.len() {
        return None;
    }
    if neg {
        if mag > i64::MIN.unsigned_abs() {
            return None;
        }
        Some((mag as i64).wrapping_neg())
    } else {
        i64::try_from(mag).ok()
    }
}

// ---------------------------------------------------------------------------
// Float parsing
// ---------------------------------------------------------------------------

/// Parse a plain decimal float (`[+-]?digits[.digits][eE[+-]digits]`).
///
/// Correctly-rounded everywhere, never slower than `str::parse`:
/// the Clinger fast path handles small exact cases (mantissa below 2^53,
/// decimal exponent within ±22: one float multiply), the Eisel–Lemire
/// wide window covers everything up to 19 significant digits — including
/// the 17-digit shortest-round-trip forms [`write_f64`] emits — and only
/// the rare ambiguous remainder (rounding ties under digit truncation)
/// is delegated to `str::parse`. The result always matches the standard
/// library bit for bit. Returns `None` for any other syntax (including
/// `INF`/`NaN` spellings — see [`parse_f64_lexical`]).
pub fn parse_f64(s: &str) -> Option<f64> {
    let b = s.as_bytes();
    let (neg, mut i) = match b.first()? {
        b'-' => (true, 1),
        b'+' => (false, 1),
        _ => (false, 0),
    };

    let mut mantissa: u64 = 0;
    let mut ndigits = 0usize;
    let mut truncated = false;
    let mut exp10: i32 = 0;

    // Integer part.
    let int_start = i;
    while i < b.len() && b[i].is_ascii_digit() {
        let d = b[i] - b'0';
        if mantissa == 0 && d == 0 {
            // Leading zeros carry no significance.
        } else if ndigits < 19 {
            if ndigits == 0 && b.len() - i >= 8 {
                // Bulk path for long digit runs.
                if let Some((v, used)) = eat_digits(&b[i..], 0) {
                    if used <= 19 {
                        mantissa = v;
                        ndigits = used;
                        i += used;
                        continue;
                    }
                }
            }
            mantissa = mantissa * 10 + d as u64;
            ndigits += 1;
        } else {
            // Digits beyond the 19 we keep shift the exponent; a dropped
            // non-zero digit means the fast path would mis-round.
            exp10 += 1;
            truncated |= d != 0;
        }
        i += 1;
    }
    let had_int_digits = i > int_start;

    // Fraction part.
    let mut had_frac_digits = false;
    if i < b.len() && b[i] == b'.' {
        i += 1;
        while i < b.len() && b[i].is_ascii_digit() {
            let d = b[i] - b'0';
            had_frac_digits = true;
            if mantissa == 0 && d == 0 {
                exp10 -= 1;
            } else if ndigits < 19 {
                mantissa = mantissa * 10 + d as u64;
                ndigits += 1;
                exp10 -= 1;
            } else {
                truncated |= d != 0;
            }
            i += 1;
        }
    }
    if !had_int_digits && !had_frac_digits {
        return None;
    }

    // Exponent part.
    if i < b.len() && (b[i] | 0x20) == b'e' {
        i += 1;
        let (eneg, mut j) = match b.get(i)? {
            b'-' => (true, i + 1),
            b'+' => (false, i + 1),
            _ => (false, i),
        };
        if j >= b.len() || !b[j].is_ascii_digit() {
            return None;
        }
        let mut e: i32 = 0;
        while j < b.len() && b[j].is_ascii_digit() {
            e = (e.saturating_mul(10)).saturating_add((b[j] - b'0') as i32);
            j += 1;
        }
        exp10 = exp10.saturating_add(if eneg { -e } else { e });
        i = j;
    }
    if i != b.len() {
        return None;
    }

    if !truncated && mantissa < (1u64 << 53) && (-22..=22).contains(&exp10) {
        let mut v = mantissa as f64;
        v = if exp10 < 0 {
            v / POW10_F64[(-exp10) as usize]
        } else {
            v * POW10_F64[exp10 as usize]
        };
        return Some(if neg { -v } else { v });
    }
    // Wide window: the Eisel–Lemire 128-bit product is correctly rounded
    // for any mantissa that fit in the 19 digits we kept. A truncated
    // mantissa brackets the true value between w and w+1; when both
    // bounds round to the same float that float is exact, otherwise the
    // (rare) ambiguous case falls through.
    if !truncated {
        if let Some(v) = eisel_lemire(mantissa, exp10) {
            return Some(if neg { -v } else { v });
        }
    } else if let (Some(lo), Some(hi)) =
        (eisel_lemire(mantissa, exp10), eisel_lemire(mantissa + 1, exp10))
    {
        if lo.to_bits() == hi.to_bits() {
            return Some(if neg { -lo } else { lo });
        }
    }
    // Ambiguous remainder (half-ulp ties under truncation, products too
    // close to a rounding boundary for 128 bits): the standard parser is
    // correctly rounded everywhere.
    s.parse().ok()
}

// ---------------------------------------------------------------------------
// Eisel–Lemire wide-window binary conversion
// ---------------------------------------------------------------------------

/// Decimal exponent range covered by the 128-bit powers-of-five table:
/// below `EL_MIN_EXP10` every ≤ 2^64 mantissa rounds to zero, above
/// `EL_MAX_EXP10` every non-zero one overflows to infinity.
const EL_MIN_EXP10: i32 = -342;
const EL_MAX_EXP10: i32 = 308;

/// Truncated 128-bit significands of `5^q` for `q` in
/// [`EL_MIN_EXP10`, `EL_MAX_EXP10`], normalized so bit 127 is set and
/// stored `(hi, lo)`. Negative powers are rounded *up* (their binary
/// expansion is infinite; the ceiling keeps the stored value ≥ the true
/// one, which the product-precision check accounts for), positive powers
/// are rounded down. The table is computed from the exact bigint once
/// per process instead of baked in as constants.
fn el_powers() -> &'static [(u64, u64)] {
    static POWERS: OnceLock<Vec<(u64, u64)>> = OnceLock::new();
    POWERS.get_or_init(|| {
        let len = (EL_MAX_EXP10 - EL_MIN_EXP10 + 1) as usize;
        let mut table = vec![(0u64, 0u64); len];
        // Negative powers: ceil(2^(b+127) / 5^m) has exactly 128 bits
        // when b is the bit length of 5^m.
        for q in EL_MIN_EXP10..0 {
            let five_m = bigint_pow5((-q) as u32);
            let b = bigint::bit_len(&five_m);
            let v = div_pow2_128(b + 127, &five_m) + 1;
            table[(q - EL_MIN_EXP10) as usize] = ((v >> 64) as u64, v as u64);
        }
        // Non-negative powers: top 128 bits of the exact 5^q, built
        // incrementally.
        let mut big = vec![1u64];
        for q in 0..=EL_MAX_EXP10 {
            if q > 0 {
                bigint::mul_small(&mut big, 5);
            }
            let v = big_top128(&big);
            table[(q - EL_MIN_EXP10) as usize] = ((v >> 64) as u64, v as u64);
        }
        table
    })
}

/// `5^m` as an exact bigint.
fn bigint_pow5(m: u32) -> Vec<u64> {
    let mut big = vec![1u64];
    for _ in 0..m {
        bigint::mul_small(&mut big, 5);
    }
    big
}

/// Top 128 bits of a big integer, truncated, left-normalized.
fn big_top128(big: &[u64]) -> u128 {
    let bits = bigint::bit_len(big);
    let mut v: u128 = 0;
    if bits <= 128 {
        for i in 0..bits {
            if bigint::bit(big, i) {
                v |= 1 << i;
            }
        }
        v << (128 - bits)
    } else {
        let shift = bits - 128;
        for i in 0..128 {
            if bigint::bit(big, shift + i) {
                v |= 1 << i;
            }
        }
        v
    }
}

/// `floor(2^n / d)` where `n` is sized so the quotient has ≤ 128 bits.
fn div_pow2_128(n: u32, d: &[u64]) -> u128 {
    let mut rem = vec![0u64; d.len() + 1];
    let mut q: u128 = 0;
    for pos in (0..=n).rev() {
        bigint::shl1(&mut rem);
        if pos == n {
            rem[0] |= 1;
        }
        let bit = if bigint::ge(&rem, d) {
            bigint::sub(&mut rem, d);
            1
        } else {
            0
        };
        q = (q << 1) | bit;
    }
    q
}

/// Binary exponent of the normalized 128-bit approximation of `10^q`
/// (the classic `(217706 * q) >> 16 + 63` linear fit, exact over the
/// table's range).
#[inline]
fn el_power2(q: i32) -> i32 {
    (q.wrapping_mul(152_170 + 65_536) >> 16) + 63
}

/// 64×64 → 128 multiply split into `(hi, lo)`.
#[inline]
fn umul128(a: u64, b: u64) -> (u64, u64) {
    let p = (a as u128) * (b as u128);
    ((p >> 64) as u64, p as u64)
}

/// Eisel–Lemire: convert an exact decimal `w × 10^q` (`w` the full
/// mantissa, up to 19 digits) to the nearest `f64`, or `None` when the
/// 128-bit product cannot prove the rounding direction. Returns the
/// magnitude only; the caller applies the sign (so `-0.0` works out).
///
/// Normal/subnormal/overflow/underflow handling follows the reference
/// algorithm ("Number Parsing at a Gigabyte per Second", Lemire 2021):
/// one (rarely two) 64×64 multiplies against the 128-bit power-of-five
/// table, a 9-bit precision check, and an explicit round-to-even fixup
/// on exact halfway products.
fn eisel_lemire(w: u64, q: i32) -> Option<f64> {
    if w == 0 || q < EL_MIN_EXP10 {
        // Even 2^64 × 10^-343 is below half the smallest subnormal.
        return Some(0.0);
    }
    if q > EL_MAX_EXP10 {
        return Some(f64::INFINITY);
    }
    let lz = w.leading_zeros();
    let w_norm = w << lz;

    // Product of the normalized mantissa with the 128-bit power. The
    // precision check needs 52 mantissa bits + 3 (hidden bit, rounding
    // bit, table-truncation error margin); if the top multiply's low 9
    // bits are all ones the result may be off, so refine with the low
    // table word before giving up.
    let (p_hi, p_lo) = el_powers()[(q - EL_MIN_EXP10) as usize];
    let (mut hi, mut lo) = umul128(w_norm, p_hi);
    if hi & 0x1FF == 0x1FF {
        let (second_hi, _) = umul128(w_norm, p_lo);
        lo = lo.wrapping_add(second_hi);
        if second_hi > lo {
            hi += 1;
        }
    }
    if lo == u64::MAX && !(-27..=55).contains(&q) {
        // A saturated low word means the truncated table's error could
        // still flip the rounding; only exponents whose 5^q fits the
        // 128-bit entry exactly are immune.
        return None;
    }

    let upperbit = (hi >> 63) as i32;
    let mut mantissa = hi >> (upperbit + 64 - 52 - 3);
    let mut power2 = el_power2(q) + upperbit - lz as i32 + 1023;
    if power2 <= 0 {
        // Subnormal (or complete underflow) territory.
        if -power2 + 1 >= 64 {
            return Some(0.0);
        }
        mantissa >>= -power2 + 1;
        mantissa += mantissa & 1;
        mantissa >>= 1;
        let e = u64::from(mantissa >= (1u64 << 52));
        return Some(f64::from_bits((e << 52) | (mantissa & !(1u64 << 52))));
    }
    // An exact halfway product must round to even, not up; the window
    // where `w × 5^q` can be a power of two is q ∈ [-4, 23].
    if lo <= 1
        && (-4..=23).contains(&q)
        && mantissa & 3 == 1
        && (mantissa << (upperbit + 64 - 52 - 3)) == hi
    {
        mantissa &= !1u64;
    }
    mantissa += mantissa & 1;
    mantissa >>= 1;
    if mantissa >= (2u64 << 52) {
        mantissa = 1u64 << 52;
        power2 += 1;
    }
    if power2 >= 0x7FF {
        return Some(f64::INFINITY);
    }
    Some(f64::from_bits(
        ((power2 as u64) << 52) | (mantissa & !(1u64 << 52)),
    ))
}

/// XSD `double` lexical parsing: `INF`/`+INF`/`-INF`/`NaN` plus decimal
/// forms, with the kernel fast path first. Accepts exactly the inputs
/// `bxdm::value::parse_f64_lexical` accepts.
#[inline]
pub fn parse_f64_lexical(t: &str) -> Option<f64> {
    if let Some(v) = parse_f64(t) {
        return Some(v);
    }
    bxdm::value::parse_f64_lexical(t)
}

// ---------------------------------------------------------------------------
// Big-integer helpers for the power table
// ---------------------------------------------------------------------------

/// Little-endian multi-limb unsigned integer helpers (only what the
/// power-table computation needs; runs once per process).
mod bigint {
    /// `big *= m` in place.
    pub fn mul_small(big: &mut Vec<u64>, m: u64) {
        let mut carry: u128 = 0;
        for limb in big.iter_mut() {
            let p = (*limb as u128) * (m as u128) + carry;
            *limb = p as u64;
            carry = p >> 64;
        }
        if carry != 0 {
            big.push(carry as u64);
        }
    }

    /// Number of significant bits.
    pub fn bit_len(big: &[u64]) -> u32 {
        let top = *big.last().expect("empty bigint");
        (big.len() as u32 - 1) * 64 + (64 - top.leading_zeros())
    }

    /// Bit `i` (little-endian numbering).
    pub fn bit(big: &[u64], i: u32) -> bool {
        let limb = (i / 64) as usize;
        limb < big.len() && (big[limb] >> (i % 64)) & 1 == 1
    }

    /// `a >= b` for equal-purpose comparisons (treats missing limbs as 0).
    pub fn ge(a: &[u64], b: &[u64]) -> bool {
        let n = a.len().max(b.len());
        for i in (0..n).rev() {
            let x = a.get(i).copied().unwrap_or(0);
            let y = b.get(i).copied().unwrap_or(0);
            if x != y {
                return x > y;
            }
        }
        true
    }

    /// `a -= b` in place; caller guarantees `a >= b`.
    pub fn sub(a: &mut [u64], b: &[u64]) {
        let mut borrow = 0u64;
        for (i, limb) in a.iter_mut().enumerate() {
            let y = b.get(i).copied().unwrap_or(0);
            let (d1, b1) = limb.overflowing_sub(y);
            let (d2, b2) = d1.overflowing_sub(borrow);
            *limb = d2;
            borrow = (b1 | b2) as u64;
        }
        debug_assert_eq!(borrow, 0, "bigint subtraction underflow");
    }

    /// `a <<= 1` in place (fixed width; caller sizes `a` generously).
    pub fn shl1(a: &mut [u64]) {
        let mut carry = 0u64;
        for limb in a.iter_mut() {
            let next_carry = *limb >> 63;
            *limb = (*limb << 1) | carry;
            carry = next_carry;
        }
        debug_assert_eq!(carry, 0, "bigint shift overflow");
    }
}

// ---------------------------------------------------------------------------
// Float formatting
// ---------------------------------------------------------------------------

/// Render `digits * 10^k` into `out`, choosing fixed or scientific
/// notation; returns the byte length.
fn render_decimal(digits: &[u8], k: i32, out: &mut [u8; 40]) -> usize {
    let len = digits.len();
    let dp = len as i32 + k; // position of the decimal point
    let mut n;
    if k >= 0 && dp <= 17 {
        // Pure integer: digits then k zeros.
        out[..len].copy_from_slice(digits);
        n = len;
        for _ in 0..k {
            out[n] = b'0';
            n += 1;
        }
    } else if 0 < dp && dp < len as i32 {
        // Point inside the digit run.
        let dp = dp as usize;
        out[..dp].copy_from_slice(&digits[..dp]);
        out[dp] = b'.';
        out[dp + 1..len + 1].copy_from_slice(&digits[dp..]);
        n = len + 1;
    } else if (-3..=0).contains(&dp) {
        // Small magnitude: leading "0." and up to three zeros.
        out[0] = b'0';
        out[1] = b'.';
        n = 2;
        for _ in 0..-dp {
            out[n] = b'0';
            n += 1;
        }
        out[n..n + len].copy_from_slice(digits);
        n += len;
    } else {
        // Scientific: d[.ddd]e±x.
        out[0] = digits[0];
        n = 1;
        if len > 1 {
            out[1] = b'.';
            out[2..len + 1].copy_from_slice(&digits[1..]);
            n = len + 1;
        }
        out[n] = b'e';
        n += 1;
        let e = dp - 1;
        if e < 0 {
            out[n] = b'-';
            n += 1;
        }
        let mut tmp = [0u8; 3];
        let mut t = tmp.len();
        let mut ev = e.unsigned_abs();
        loop {
            t -= 1;
            tmp[t] = b'0' + (ev % 10) as u8;
            ev /= 10;
            if ev == 0 {
                break;
            }
        }
        for &byte in &tmp[t..] {
            out[n] = byte;
            n += 1;
        }
    }
    n
}

/// The exact short-decimal path for `1 <= v < 1e15`: the fewest
/// fractional digits `k` for which `m = round(v * 10^k)` divides back to
/// exactly `v`. `m` (below 2^52) and `10^k` are exact doubles and the
/// division is correctly rounded, so `m / 10^k == v` proves the decimal
/// `m * 10^-k` parses back to `v`; ascending `k` makes it the shortest
/// (and `m` never ends in a zero when `k > 0`). Returns `(m, k)`.
#[inline]
fn short_decimal(v: f64) -> Option<(u64, usize)> {
    const LIMIT: f64 = (1u64 << 52) as f64;
    if !(1.0..1e15).contains(&v) {
        return None;
    }
    for (k, &scale) in POW10_F64.iter().enumerate() {
        let x = v * scale;
        if x >= LIMIT {
            return None;
        }
        // Nearest integer by adding and removing 2^52 (whose ulp is 1):
        // plain SSE2 arithmetic where `f64::round` is a libm call. Ties go
        // to even, which cannot matter: a tie is half a unit from both
        // neighbours, too far for either to divide back to `v`.
        let m = (x + LIMIT) - LIMIT;
        if m / scale == v {
            return Some((m as u64, k));
        }
    }
    None
}

/// The shortest round-trip digits of a positive finite `v` from the
/// standard library's exact formatter, as `(len, k)` with
/// `value = digits * 10^k` — the slow path behind [`write_f64`].
fn exact_digits(v: f64, digits: &mut [u8; 20]) -> (usize, i32) {
    use std::fmt::Write as _;
    /// `{:e}` output on the stack: at most 17 digits, a point and an
    /// exponent of up to four characters.
    struct Stack {
        buf: [u8; 32],
        len: usize,
    }
    impl std::fmt::Write for Stack {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            let end = self.len + s.len();
            self.buf
                .get_mut(self.len..end)
                .ok_or(std::fmt::Error)?
                .copy_from_slice(s.as_bytes());
            self.len = end;
            Ok(())
        }
    }
    let mut text = Stack {
        buf: [0; 32],
        len: 0,
    };
    write!(text, "{v:e}").expect("a finite f64 in scientific form fits 32 bytes");
    let text = &text.buf[..text.len];
    let e_at = text
        .iter()
        .position(|&b| b == b'e')
        .expect("{:e} has an exponent");
    let mut len = 0;
    for &b in text[..e_at].iter().filter(|b| b.is_ascii_digit()) {
        digits[len] = b;
        len += 1;
    }
    let exp = std::str::from_utf8(&text[e_at + 1..])
        .ok()
        .and_then(|e| e.parse::<i32>().ok())
        .expect("{:e} exponent is an integer");
    (len, exp - (len as i32 - 1))
}

/// Append the shortest-round-trip decimal form of `v` to `out`, using
/// the XSD spellings `INF`/`-INF`/`NaN` for non-finite values (the same
/// contract as `bxdm::value::write_f64_lexical`, several times faster).
///
/// The digits are always the shortest that parse back to `v`, and the
/// closest to `v` among those — the digits of the standard library's
/// `{}` output. Two paths produce them: the exact short-decimal path for
/// `1 <= |v| < 1e15` with few fractional digits, and the standard
/// library's exact formatter for everything else. The notation is
/// fixed-point for decimal exponents from -3 through 17 and scientific
/// outside.
pub fn write_f64(v: f64, out: &mut String) {
    if v.is_nan() {
        out.push_str("NaN");
        return;
    }
    if v.is_infinite() {
        out.push_str(if v > 0.0 { "INF" } else { "-INF" });
        return;
    }
    if v == 0.0 {
        out.push_str(if v.is_sign_negative() { "-0" } else { "0" });
        return;
    }
    let abs = v.abs();
    if v.is_sign_negative() {
        out.push('-');
    }
    if let Some((m, k)) = short_decimal(abs) {
        // Fixed-point `int.frac` with exactly `k` fractional digits —
        // what `render_decimal` writes for these digits — built right to
        // left in one pass over `m`.
        let mut text = [0u8; 24];
        let mut at = text.len();
        let mut rest = m;
        for _ in 0..k {
            at -= 1;
            text[at] = b'0' + (rest % 10) as u8;
            rest /= 10;
        }
        if k > 0 {
            at -= 1;
            text[at] = b'.';
        }
        loop {
            at -= 1;
            text[at] = b'0' + (rest % 10) as u8;
            rest /= 10;
            if rest == 0 {
                break;
            }
        }
        out.push_str(std::str::from_utf8(&text[at..]).expect("ASCII digits"));
        return;
    }
    let mut digits = [0u8; 20];
    let mut text = [0u8; 40];
    let (len, k) = exact_digits(abs, &mut digits);
    let n = render_decimal(&digits[..len], k, &mut text);
    out.push_str(std::str::from_utf8(&text[..n]).expect("rendered digits are ASCII"));
}

/// Pre-compute the Eisel–Lemire parse table so later calls never
/// allocate. Idempotent; callers that count allocations invoke this once
/// at startup.
pub fn warm_up() {
    let _ = el_powers();
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn fmt(v: f64) -> String {
        let mut s = String::new();
        write_f64(v, &mut s);
        s
    }

    #[test]
    fn itoa_matches_std() {
        let cases: [u64; 12] = [
            0,
            1,
            9,
            10,
            99,
            100,
            12345,
            4_294_967_295,
            4_294_967_296,
            999_999_999_999_999_999,
            u64::MAX - 1,
            u64::MAX,
        ];
        for v in cases {
            let mut s = String::new();
            write_u64(v, &mut s);
            assert_eq!(s, v.to_string());
        }
        for v in [i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX, -42_000] {
            let mut s = String::new();
            write_i64(v, &mut s);
            assert_eq!(s, v.to_string());
        }
    }

    #[test]
    fn swar_digit_helpers() {
        assert!(is_8_digits(u64::from_le_bytes(*b"12345678")));
        assert!(!is_8_digits(u64::from_le_bytes(*b"1234567a")));
        assert!(!is_8_digits(u64::from_le_bytes(*b"1234 678")));
        assert_eq!(fold_8_digits(u64::from_le_bytes(*b"12345678")), 12_345_678);
        assert_eq!(fold_8_digits(u64::from_le_bytes(*b"00000000")), 0);
        assert_eq!(fold_8_digits(u64::from_le_bytes(*b"99999999")), 99_999_999);
    }

    #[test]
    fn parse_integers_match_std() {
        for s in [
            "0",
            "7",
            "42",
            "12345678",
            "123456789012345",
            "18446744073709551615",
        ] {
            assert_eq!(parse_u64(s), s.parse::<u64>().ok(), "u64 {s}");
        }
        assert_eq!(parse_u64("18446744073709551616"), None); // overflow
        assert_eq!(parse_u64(""), None);
        assert_eq!(parse_u64("12a"), None);
        assert_eq!(parse_u64("-1"), None);

        for s in [
            "0",
            "-1",
            "+5",
            "9223372036854775807",
            "-9223372036854775808",
        ] {
            assert_eq!(parse_i64(s), s.parse::<i64>().ok(), "i64 {s}");
        }
        assert_eq!(parse_i64("9223372036854775808"), None);
        assert_eq!(parse_i64("-9223372036854775809"), None);
        assert_eq!(parse_i64("-"), None);
    }

    #[test]
    fn f64_format_pinned_forms() {
        assert_eq!(fmt(0.0), "0");
        assert_eq!(fmt(-0.0), "-0");
        assert_eq!(fmt(1.0), "1");
        assert_eq!(fmt(-2.0), "-2");
        assert_eq!(fmt(1.5), "1.5");
        assert_eq!(fmt(0.5), "0.5");
        assert_eq!(fmt(3.25), "3.25");
        assert_eq!(fmt(12345.0), "12345");
        assert_eq!(fmt(0.001), "0.001");
        assert_eq!(fmt(f64::INFINITY), "INF");
        assert_eq!(fmt(f64::NEG_INFINITY), "-INF");
        assert_eq!(fmt(f64::NAN), "NaN");
    }

    /// Values on which Grisu2, the writer's earlier algorithm, returns 17
    /// digits although fewer round-trip: the writer must emit the shortest
    /// digits.
    #[test]
    fn f64_format_is_shortest_where_grisu2_is_not() {
        assert_eq!(fmt(26016497.6568), "26016497.6568");
        assert_eq!(fmt(1681.74855642), "1681.74855642");
        assert_eq!(fmt(51.8183753265), "51.8183753265");
        assert_eq!(fmt(-51.8183753265), "-51.8183753265");
    }

    /// `s` as `(significant digits, point)` with `value = 0.digits * 10^point`,
    /// leading and trailing zeros stripped — the notation-free digits of
    /// a decimal spelling.
    fn digits_of(s: &str) -> (String, i32) {
        let s = s.trim_start_matches('-');
        let (mantissa, exp) = match s.split_once(['e', 'E']) {
            Some((m, e)) => (m, e.parse::<i32>().unwrap()),
            None => (s, 0),
        };
        let (int, frac) = mantissa.split_once('.').unwrap_or((mantissa, ""));
        let all = format!("{int}{frac}");
        let lead = all.len() - all.trim_start_matches('0').len();
        let digits = all[lead..].trim_end_matches('0').to_owned();
        (digits, int.len() as i32 - lead as i32 + exp)
    }

    /// Seeded differential against the standard library: the writer's
    /// digits equal the digits of std's shortest output, inside the
    /// short-decimal range and outside it. `F64_DIFF_SAMPLES` scales the
    /// per-class sample count (default 20,000).
    #[test]
    fn f64_digits_match_std_shortest() {
        let per_class: u64 = std::env::var("F64_DIFF_SAMPLES")
            .ok()
            .and_then(|n| n.parse().ok())
            .unwrap_or(20_000);
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            // SplitMix64.
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut checked = [0u64; 4];
        let mut paths = [0u64; 2];
        for _ in 0..per_class {
            // Short decimals: up to 15 significant digits, up to 12 of them
            // fractional — LEAD-like data, mostly in the short-decimal range.
            let frac = (next() % 13) as u32;
            let sig = 10u64.pow(1 + (next() % 15) as u32);
            let text = format!("{}e-{frac}", next() % sig);
            let short: f64 = text.parse().unwrap();
            // Any finite bit pattern.
            let bits = f64::from_bits(next());
            // Uniform in [1, 1e15): rarely short, so the exact path decides.
            let wide = 1.0 + (next() >> 11) as f64 / (1u64 << 53) as f64 * 1e15;
            // Short decimals below one: outside the short-decimal range.
            let small: f64 = format!("{}e-{}", next() % 1_000_000, 7 + next() % 12)
                .parse()
                .unwrap();
            for (class, v) in [short, bits, wide, small].into_iter().enumerate() {
                if !v.is_finite() || v == 0.0 {
                    continue;
                }
                let written = fmt(v);
                assert_eq!(digits_of(&written), digits_of(&format!("{v:e}")), "{v:e} wrote {written:?}");
                // ...in the writer's notation, spelled from std's digits.
                let mut digits = [0u8; 20];
                let mut text = [0u8; 40];
                let (len, k) = exact_digits(v.abs(), &mut digits);
                let n = render_decimal(&digits[..len], k, &mut text);
                let sign = if v < 0.0 { "-" } else { "" };
                let expected = format!("{sign}{}", std::str::from_utf8(&text[..n]).unwrap());
                assert_eq!(written, expected, "{v:e}");
                checked[class] += 1;
                let path = usize::from(short_decimal(v.abs()).is_none());
                paths[path] += 1;
            }
        }
        assert!(checked.iter().all(|&n| n > per_class / 2), "{checked:?}");
        eprintln!(
            "checked per class {checked:?}; short-decimal {}, exact {}",
            paths[0], paths[1]
        );
    }

    #[test]
    fn f64_format_roundtrips_edge_values() {
        for v in [
            1.0,
            -1.0,
            0.1,
            1.0 / 3.0,
            std::f64::consts::PI,
            2.2250738585072014e-308, // smallest normal
            5e-324,                  // smallest subnormal
            f64::MAX,
            f64::MIN_POSITIVE,
            1e300,
            -1e-300,
            9007199254740993.0, // 2^53 + 1 rounds; still must round-trip
            1.7976931348623157e308,
            #[allow(clippy::excessive_precision)] // denormal min, spelled out
            4.9406564584124654e-324,
            #[allow(clippy::excessive_precision)] // deliberately over-precise
            123456789.123456789,
        ] {
            let s = fmt(v);
            let back: f64 = s.parse().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v:?} -> {s:?} -> {back:?}");
        }
    }

    #[test]
    fn f64_parse_matches_std() {
        for s in [
            "0",
            "-0",
            "1.5",
            "3.25e-8",
            "1e300",
            "-1e-300",
            "0.000001",
            "9007199254740993",
            "1.7976931348623157e308",
            "5e-324",
            "123456789012345678901234567890",
            "0.00000000000000000000000000001",
            "+1.25",
            "1e999",
            "-1e999",
            "1e-999",
        ] {
            assert_eq!(
                parse_f64(s).map(f64::to_bits),
                s.parse::<f64>().ok().map(f64::to_bits),
                "parse {s}"
            );
        }
        for s in ["", ".", "e5", "1e", "1e+", "1.5x", "--1", "1..2", "INF", "NaN"] {
            assert_eq!(parse_f64(s), None, "reject {s:?}");
        }
    }

    #[test]
    fn lexical_wrapper_handles_xsd_specials() {
        assert_eq!(parse_f64_lexical("INF"), Some(f64::INFINITY));
        assert_eq!(parse_f64_lexical("+INF"), Some(f64::INFINITY));
        assert_eq!(parse_f64_lexical("-INF"), Some(f64::NEG_INFINITY));
        assert!(parse_f64_lexical("NaN").unwrap().is_nan());
        assert_eq!(parse_f64_lexical("2.5"), Some(2.5));
    }

    #[test]
    fn el_powers_are_accurate() {
        warm_up();
        let table = el_powers();
        assert_eq!(table.len(), (EL_MAX_EXP10 - EL_MIN_EXP10 + 1) as usize);
        for (i, &(hi, lo)) in table.iter().enumerate() {
            let q = EL_MIN_EXP10 + i as i32;
            assert!(hi >= 1 << 63, "5^{q} table entry not normalized");
            // The 128-bit significand times 2^el_power2(q) must approximate
            // 10^q: compare logs to high precision.
            let sig = (hi as f64) * 2f64.powi(64) + lo as f64;
            let lhs = sig.ln() + (el_power2(q) - 63 - 127) as f64 * std::f64::consts::LN_2;
            let rhs = q as f64 * std::f64::consts::LN_10;
            assert!((lhs - rhs).abs() < 1e-9, "10^{q}: {lhs} vs {rhs}");
        }
    }

    #[test]
    fn el_clinger_boundary_cases() {
        // Strings straddling the Clinger fast-path window (|exp10| ≤ 22,
        // mantissa < 2^53): one step inside, on, and outside each edge, plus
        // mantissas at and just past 2^53 that force the wide-window path.
        for s in [
            "1e22",
            "1e23",
            "1e-22",
            "1e-23",
            "9007199254740991e22",  // 2^53 - 1, fast-path mantissa limit
            "9007199254740992e22",  // 2^53, first EL-only mantissa
            "9007199254740993e-23", // odd 54-bit mantissa, negative edge
            "8e22",
            "8.1e-23",
            "4503599627370496e24",
            "18014398509481984e-24",
            // Known hard cases for float parsers (halfway values).
            "2.2250738585072011e-308", // near smallest normal
            "2.2250738585072014e-308",
            "7.2057594037927933e16", // halfway between two floats
            "5.0e-324",
            "4.9e-324",
            "2.47032822920623272e-324", // below half the smallest subnormal
        ] {
            assert_eq!(
                parse_f64(s).map(f64::to_bits),
                s.parse::<f64>().ok().map(f64::to_bits),
                "boundary {s}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn prop_el_random_bit_patterns(bits in any::<u64>()) {
            // Reinterpret raw bits: exercises the full exponent range,
            // subnormals, and both signs. Shortest form plus the 17-digit
            // scientific form (maximum digits write_f64 ever emits).
            let v = f64::from_bits(bits);
            if v.is_finite() {
                for s in [format!("{v}"), format!("{v:.16e}")] {
                    prop_assert_eq!(
                        parse_f64(&s).map(f64::to_bits),
                        s.parse::<f64>().ok().map(f64::to_bits),
                        "bits {bits:#018x} as {}", s
                    );
                }
            }
        }

        #[test]
        fn prop_el_subnormals(mantissa in 1u64..(1 << 52), neg in any::<bool>()) {
            // Exponent field zero: every value is subnormal. The EL power2
            // underflows and the shift-based subnormal branch must round
            // exactly as std does.
            let bits = mantissa | if neg { 1 << 63 } else { 0 };
            let v = f64::from_bits(bits);
            let s = format!("{v:e}");
            prop_assert_eq!(
                parse_f64(&s).map(f64::to_bits),
                Some(bits),
                "subnormal {}", s
            );
        }

        #[test]
        fn prop_el_clinger_window_edges(
            m in 0u64..=(1 << 54),
            e in -25i32..=25,
        ) {
            // Mantissa/exponent pairs clustered around the fast-path
            // cutoffs (2^53 and ±22): both paths must agree with std.
            let s = format!("{m}e{e}");
            prop_assert_eq!(
                parse_f64(&s).map(f64::to_bits),
                s.parse::<f64>().ok().map(f64::to_bits),
                "window {}", s
            );
        }

        #[test]
        fn prop_f64_format_roundtrips(v in any::<f64>()) {
            let s = fmt(v);
            let back = parse_f64_lexical(&s).unwrap();
            prop_assert_eq!(back.to_bits(), v.to_bits());
        }

        #[test]
        fn prop_f64_format_roundtrips_normal(v in proptest::num::f64::NORMAL) {
            let s = fmt(v);
            let back: f64 = s.parse().unwrap();
            prop_assert_eq!(back.to_bits(), v.to_bits());
        }

        #[test]
        fn prop_parse_agrees_with_std(v in any::<f64>()) {
            // Std's shortest form and std's debug form both reparse
            // identically through the kernel (finite values; the kernel
            // leaves inf/nan spellings to the XSD lexical wrapper).
            if v.is_finite() {
                let shortest = format!("{v}");
                prop_assert_eq!(
                    parse_f64(&shortest).map(f64::to_bits),
                    shortest.parse::<f64>().ok().map(f64::to_bits)
                );
                let sci = format!("{v:e}");
                prop_assert_eq!(
                    parse_f64(&sci).map(f64::to_bits),
                    sci.parse::<f64>().ok().map(f64::to_bits)
                );
            }
        }

        #[test]
        fn prop_itoa_roundtrips(v in any::<i64>()) {
            let mut s = String::new();
            write_i64(v, &mut s);
            prop_assert_eq!(s.parse::<i64>().ok(), Some(v));
            prop_assert_eq!(parse_i64(&s), Some(v));
        }
    }
}
