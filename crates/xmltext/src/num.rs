//! Numeric text writers for the XML hot path.
//!
//! The paper's central measurement (§6, Table 2) is that SOAP spends its
//! time converting doubles to and from ASCII, not in XML structure. The
//! writing half of that conversion is done here, faster than `write!`:
//!
//! * [`write_u64`] / [`write_i64`] — branch-light integer itoa using a
//!   two-digits-at-a-time lookup table.
//! * [`write_f64`] — shortest-round-trip binary-to-decimal conversion:
//!   an exact short-decimal path for values with few fractional digits
//!   and the standard formatter's exact digits for the rest, so both
//!   round-trip fidelity (the paper's "transcodability" requirement) and
//!   shortness are unconditional.
//!
//! Parsing is the standard library's: the XML readers parse numbers with
//! the same functions `bxdm::AtomicValue::parse_as` calls (`str::parse`
//! for integers, `bxdm::value::parse_f64_lexical` for doubles), so the
//! typed and tree readers accept one number language.

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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn prop_f64_format_roundtrips(v in any::<f64>()) {
            let s = fmt(v);
            let back = bxdm::value::parse_f64_lexical(&s).unwrap();
            prop_assert_eq!(back.to_bits(), v.to_bits());
        }

        #[test]
        fn prop_f64_format_roundtrips_normal(v in proptest::num::f64::NORMAL) {
            let s = fmt(v);
            let back: f64 = s.parse().unwrap();
            prop_assert_eq!(back.to_bits(), v.to_bits());
        }

        #[test]
        fn prop_itoa_roundtrips(v in any::<i64>()) {
            let mut s = String::new();
            write_i64(v, &mut s);
            prop_assert_eq!(s.parse::<i64>().ok(), Some(v));
        }
    }
}
