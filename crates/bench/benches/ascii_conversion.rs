//! Ablation A1: the float ↔ ASCII conversion cost.
//!
//! The paper (§1, §6.2, citing Chiu et al. HPDC'02): "the conversion
//! between the native floating-point number to their textual ones
//! dominates the SOAP performance". This bench isolates exactly that
//! conversion against the binary alternative (a bounds-checked copy).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use xbs::{ByteOrder, XbsWriter};

fn dataset(n: usize) -> Vec<f64> {
    let (_, values) = bxsoap::lead_dataset(n, 42);
    values
}

fn bench_conversion(c: &mut Criterion) {
    let mut group = c.benchmark_group("ascii_conversion");
    for &n in &[1_000usize, 100_000] {
        let values = dataset(n);
        group.throughput(Throughput::Bytes((n * 8) as u64));

        // Binary path: packed aligned copy (what a BXSA array frame does).
        group.bench_with_input(BenchmarkId::new("binary_pack", n), &values, |b, v| {
            b.iter(|| {
                let mut w = XbsWriter::with_capacity(v.len() * 8 + 16, ByteOrder::Little);
                w.put_packed(v);
                w.into_bytes()
            })
        });

        // Textual path, encode: shortest-round-trip formatting (what the
        // XML writer does per array item), into a reused buffer.
        group.bench_with_input(BenchmarkId::new("ascii_format", n), &values, |b, v| {
            let mut out = String::with_capacity(v.len() * 24);
            b.iter(|| {
                out.clear();
                for x in v {
                    xmltext::num::write_f64(*x, &mut out);
                    out.push(' ');
                }
                out.len()
            })
        });

        // Textual path, decode: parsing the lexical forms back with the
        // parser both XML readers call for `xsd:double`.
        let text: Vec<String> = values.iter().map(|v| v.to_string()).collect();
        group.bench_with_input(BenchmarkId::new("ascii_parse", n), &text, |b, t| {
            b.iter(|| {
                let mut sum = 0.0f64;
                for s in t {
                    sum += bxdm::value::parse_f64_lexical(s).expect("parse");
                }
                sum
            })
        });

        // Binary path, decode: aligned read-back.
        let mut w = XbsWriter::new(ByteOrder::Little);
        w.put_packed(&values);
        let packed = w.into_bytes();
        group.bench_with_input(BenchmarkId::new("binary_unpack", n), &packed, |b, p| {
            b.iter(|| {
                let mut r = xbs::XbsReader::new(p, ByteOrder::Little);
                r.read_packed::<f64>(n).expect("unpack")
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(400))
        .measurement_time(std::time::Duration::from_millis(1500))
        .sample_size(20);
    targets = bench_conversion
}
criterion_main!(benches);
