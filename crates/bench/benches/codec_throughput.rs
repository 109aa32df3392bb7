//! Ablation A6: end-to-end codec throughput, BXSA vs XML 1.0 vs netCDF.
//!
//! The microscopic version of Figures 4-6's macroscopic claim: for
//! numeric scientific data, the binary codecs move an order of magnitude
//! more data per second than the textual one.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use netcdf3::NcFile;

use bench::workload::{netcdf_file, Workload};

fn bench_codecs(c: &mut Criterion) {
    let mut group = c.benchmark_group("codec_throughput");
    // 50 pairs is the perfbench small_rpc mean (the Fig. 4 regime).
    for &model_size in &[50usize, 1_000, 100_000] {
        let w = Workload::prepare(model_size, 42);
        group.throughput(Throughput::Bytes(w.native_bytes() as u64));

        group.bench_with_input(
            BenchmarkId::new("bxsa_encode", model_size),
            &w,
            |b, w| b.iter(|| bxsa::encode(&w.request_doc).expect("encode")),
        );
        group.bench_with_input(
            BenchmarkId::new("bxsa_decode", model_size),
            &w,
            |b, w| b.iter(|| bxsa::decode(&w.bxsa_bytes).expect("decode")),
        );
        group.bench_with_input(
            BenchmarkId::new("bxsa_decode_into", model_size),
            &w,
            |b, w| {
                // The steady-state server path: one document refilled in
                // place for every message, zero decode-side allocation.
                let mut doc = bxdm::Document::new();
                b.iter(|| bxsa::decode_into(&w.bxsa_bytes, &mut doc).expect("decode"))
            },
        );
        group.bench_with_input(
            BenchmarkId::new("xml_encode", model_size),
            &w,
            |b, w| {
                b.iter(|| {
                    let Ok(s) = xmltext::to_string(&w.request_doc);
                    s
                })
            },
        );
        let xml_text = std::str::from_utf8(&w.xml_bytes).expect("utf8").to_owned();
        group.bench_with_input(
            BenchmarkId::new("xml_decode", model_size),
            &xml_text,
            |b, xml| b.iter(|| xmltext::parse(xml).expect("parse")),
        );
        group.bench_with_input(
            BenchmarkId::new("xml_decode_into", model_size),
            &xml_text,
            |b, xml| {
                let mut doc = bxdm::Document::new();
                b.iter(|| xmltext::parse_into(xml, &mut doc).expect("parse"))
            },
        );
        group.bench_with_input(
            BenchmarkId::new("netcdf_encode", model_size),
            &w,
            |b, w| b.iter(|| netcdf_file(&w.index, &w.values).to_bytes().expect("nc")),
        );
        group.bench_with_input(
            BenchmarkId::new("netcdf_decode", model_size),
            &w,
            |b, w| b.iter(|| NcFile::from_bytes(&w.netcdf_bytes).expect("parse")),
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(400))
        .measurement_time(std::time::Duration::from_millis(1500))
        .sample_size(20);
    targets = bench_codecs
}
criterion_main!(benches);
