//! Deterministic differential oracles: the in-house numeric writers
//! (`xmltext::num`) against the standard library, and the HTTP date
//! parser against hand-computed civil-calendar facts.
//!
//! The fuzz targets (`fuzz/fuzz_targets/fuzz_num.rs`) sweep these same
//! oracles over random inputs; this file pins the adversarial corners by
//! name — subnormals, `-0.0`, shortest-round-trip spellings, the
//! extremes of the exponent range, `i64::MIN` — so a regression fails in
//! CI with a readable test name instead of a fuzzer artifact.

use std::time::{Duration, SystemTime, UNIX_EPOCH};

use proptest::prelude::*;
use transport::http::date::parse_http_date;
use xmltext::num;

/// `write_f64` must agree with the shortest-round-trip contract: the
/// printed form re-parses through std to the exact same bits.
fn assert_f64_round_trip(v: f64) {
    let mut s = String::new();
    num::write_f64(v, &mut s);
    if v.is_nan() {
        assert_eq!(s, "NaN");
        return;
    }
    if v.is_infinite() {
        assert_eq!(s, if v > 0.0 { "INF" } else { "-INF" });
        return;
    }
    let std_back: f64 = s.parse().unwrap_or_else(|_| panic!("std rejected {s:?}"));
    assert_eq!(std_back.to_bits(), v.to_bits(), "std re-parse of {s:?}");
}

#[test]
fn f64_writer_round_trips_the_named_corners() {
    for v in [
        0.0,
        -0.0,
        1.0,
        -1.0,
        f64::MIN_POSITIVE,              // smallest normal
        f64::MIN_POSITIVE / 2.0,        // subnormal
        f64::from_bits(1),              // smallest subnormal
        f64::from_bits(0x000f_ffff_ffff_ffff), // largest subnormal
        f64::MAX,
        f64::MIN,
        1e308,
        -1e308,
        1e-308,
        -1e-308,
        f64::EPSILON,
        0.1,
        1.0 / 3.0,
        2f64.powi(-1074),
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        std::f64::consts::PI,
    ] {
        assert_f64_round_trip(v);
    }
    // -0.0 must keep its sign through the writer.
    let mut s = String::new();
    num::write_f64(-0.0, &mut s);
    assert!(s.starts_with('-'), "-0.0 printed as {s:?}");
}

#[test]
fn integer_writers_and_parsers_agree_with_std_at_the_extremes() {
    for v in [0i64, 1, -1, i64::MAX, i64::MIN, i64::MIN + 1, 9_999_999_999_999_999] {
        let mut s = String::new();
        num::write_i64(v, &mut s);
        assert_eq!(s, format!("{v}"));
        assert_eq!(s.parse::<i64>(), Ok(v));
    }
    for v in [0u64, u64::MAX, u64::MAX - 1, 10_000_000_000_000_000_000] {
        let mut s = String::new();
        num::write_u64(v, &mut s);
        assert_eq!(s, format!("{v}"));
        assert_eq!(s.parse::<u64>(), Ok(v));
    }
}

proptest! {
    /// Any bit pattern: the writer's printed form re-parses through std
    /// to the same bits.
    #[test]
    fn f64_bits_round_trip(bits in any::<u64>()) {
        assert_f64_round_trip(f64::from_bits(bits));
    }

    #[test]
    fn i64_round_trip(v in any::<i64>()) {
        let mut s = String::new();
        num::write_i64(v, &mut s);
        prop_assert_eq!(&s, &format!("{}", v));
        prop_assert_eq!(s.parse::<i64>(), Ok(v));
    }
}

/// Days since the epoch for a civil date, by brute counting — an
/// independent oracle for the date parser's arithmetic.
fn civil_days(year: i64, month: u32, day: u32) -> i64 {
    let leap = |y: i64| y % 4 == 0 && (y % 100 != 0 || y % 400 == 0);
    let mlen = |y: i64, m: u32| match m {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        _ => if leap(y) { 29 } else { 28 },
    };
    let mut days: i64 = 0;
    for y in 1970..year {
        days += if leap(y) { 366 } else { 365 };
    }
    for m in 1..month {
        days += mlen(year, m);
    }
    days + i64::from(day) - 1
}

#[test]
fn http_date_grammars_agree_with_the_civil_calendar() {
    // The same instant in all three RFC 7231 grammars.
    let expect = |y, mo, d, h: u64, mi: u64, s: u64| {
        UNIX_EPOCH + Duration::from_secs((civil_days(y, mo, d) as u64) * 86_400 + h * 3600 + mi * 60 + s)
    };
    let cases: [(&str, &str, &str, SystemTime); 3] = [
        (
            "Sun, 06 Nov 1994 08:49:37 GMT",
            "Sunday, 06-Nov-94 08:49:37 GMT",
            "Sun Nov  6 08:49:37 1994",
            expect(1994, 11, 6, 8, 49, 37),
        ),
        (
            // Leap day on a *century* leap year (divisible by 400).
            "Tue, 29 Feb 2000 23:59:59 GMT",
            "Tuesday, 29-Feb-00 23:59:59 GMT",
            "Tue Feb 29 23:59:59 2000",
            expect(2000, 2, 29, 23, 59, 59),
        ),
        (
            // Ordinary leap year, midnight boundary.
            "Thu, 29 Feb 2024 00:00:00 GMT",
            "Thursday, 29-Feb-24 00:00:00 GMT",
            "Thu Feb 29 00:00:00 2024",
            expect(2024, 2, 29, 0, 0, 0),
        ),
    ];
    for (imf, rfc850, asctime, want) in cases {
        assert_eq!(parse_http_date(imf), Some(want), "IMF-fixdate {imf:?}");
        assert_eq!(parse_http_date(rfc850), Some(want), "rfc850 {rfc850:?}");
        assert_eq!(parse_http_date(asctime), Some(want), "asctime {asctime:?}");
    }
    // Feb 29 on a non-leap century year must fail in every grammar.
    assert_eq!(parse_http_date("Thu, 29 Feb 2100 12:00:00 GMT"), None);
    assert!(parse_http_date("Thursday, 29-Feb-00 12:00:00 GMT").is_some());
    assert_eq!(parse_http_date("Mon Feb 29 12:00:00 2100"), None);
}

proptest! {
    /// Every valid civil date formats to IMF-fixdate and parses back to
    /// the brute-counted epoch offset.
    #[test]
    fn imf_dates_match_brute_counting(
        year in 1970i64..=2400,
        month in 1u32..=12,
        day_seed in 0u32..31,
        secs in 0u64..86_400,
    ) {
        let leap = year % 4 == 0 && (year % 100 != 0 || year % 400 == 0);
        let mlen = match month {
            1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
            4 | 6 | 9 | 11 => 30,
            _ => if leap { 29 } else { 28 },
        };
        let day = 1 + day_seed % mlen;
        // Weekday names are not cross-checked against the date by the
        // parser (RFC 7231 says they are redundant), so any name works.
        let months = ["Jan", "Feb", "Mar", "Apr", "May", "Jun",
                      "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"];
        let s = format!(
            "Sun, {:02} {} {} {:02}:{:02}:{:02} GMT",
            day, months[(month - 1) as usize], year,
            secs / 3600, (secs / 60) % 60, secs % 60,
        );
        let want = UNIX_EPOCH
            + Duration::from_secs((civil_days(year, month, day) as u64) * 86_400 + secs);
        prop_assert_eq!(parse_http_date(&s), Some(want), "{}", s);
    }
}
