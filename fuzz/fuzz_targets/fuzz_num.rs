//! Differential oracle for the numeric text writers against the
//! standard library — the paper's hot path, where a one-ULP divergence
//! is a silent wrong value in every array element.
//!
//! * `write_u64`/`write_i64`: identical to `format!`.
//! * `write_f64` on arbitrary bit patterns: must re-parse through std
//!   to the identical bits — shortest round-trip fidelity.

use libfuzzer_sys::fuzz_target;

fn check_writers(data: &[u8]) {
    for chunk in data.chunks_exact(8) {
        let bits = u64::from_le_bytes(chunk.try_into().unwrap());

        let u = bits;
        let mut out = String::new();
        xmltext::num::write_u64(u, &mut out);
        assert_eq!(out, format!("{u}"), "write_u64 diverges");

        let i = bits as i64;
        out.clear();
        xmltext::num::write_i64(i, &mut out);
        assert_eq!(out, format!("{i}"), "write_i64 diverges");

        let f = f64::from_bits(bits);
        out.clear();
        xmltext::num::write_f64(f, &mut out);
        if f.is_nan() {
            assert_eq!(out, "NaN");
            continue;
        }
        if f.is_infinite() {
            assert_eq!(out, if f > 0.0 { "INF" } else { "-INF" });
            continue;
        }
        let via_std: f64 = out.parse().expect("write_f64 output must parse via std");
        assert_eq!(
            via_std.to_bits(),
            f.to_bits(),
            "write_f64 is not round-trip exact for bits {bits:#018x} ({out:?})"
        );
    }
}

fuzz_target!(|data: &[u8]| {
    check_writers(data);
});
