//! Ablation A7: the cost of policy genericity.
//!
//! Paper §5: "Because the binding is at compile time, compiler
//! optimizations are not impacted, and inlining is still enabled." This
//! bench measures a complete in-process SOAP exchange through
//!
//! 1. the raw pipeline (encode → dispatch → decode called directly), and
//! 2. the generic engine over a loopback binding (policy indirection,
//!    envelope model, fault detection),
//!
//! with the identical encoding and service. The delta isolates the
//! abstraction cost; it should be noise compared to codec work.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use soap::{
    binding::LoopbackBinding, BxsaEncoding, DecodeScratch, EncodingPolicy, ServiceRegistry,
    SoapEngine, SoapService,
};

fn registry() -> Arc<ServiceRegistry> {
    let mut registry = ServiceRegistry::new();
    bxsoap::register_verify(&mut registry);
    Arc::new(registry)
}

fn bench_engine_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_overhead");
    for &model_size in &[100usize, 10_000] {
        let (index, values) = bxsoap::lead_dataset(model_size, 42);
        let request = bxsoap::verify_request_envelope(&index, &values);
        let service = SoapService::new(BxsaEncoding::default(), registry());

        // 1. Raw pipeline: no engine at all.
        group.bench_with_input(
            BenchmarkId::new("raw_pipeline", model_size),
            &request,
            |b, request| {
                let encoding = BxsaEncoding::default();
                // Clone per iteration to mirror the engine path's
                // by-value envelope handoff exactly.
                let mut scratch = DecodeScratch::default();
                let mut reply = Vec::new();
                b.iter(|| {
                    let bytes = encoding
                        .encode(&request.clone().to_document())
                        .expect("encode");
                    service.handle(&mut scratch, &bytes, &mut reply);
                    encoding.decode(&reply).expect("decode")
                })
            },
        );

        // 2. Generic engine over a loopback binding.
        group.bench_with_input(
            BenchmarkId::new("generic_engine", model_size),
            &request,
            |b, request| {
                let service = SoapService::new(BxsaEncoding::default(), registry());
                let mut scratch = DecodeScratch::default();
                let mut engine = SoapEngine::new(
                    BxsaEncoding::default(),
                    LoopbackBinding::new(move |bytes: &[u8]| {
                        let mut reply = Vec::new();
                        service.handle(&mut scratch, bytes, &mut reply);
                        reply
                    }),
                );
                b.iter(|| engine.call_with(request.clone(), &soap::CallOptions::new()).expect("call"))
            },
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
    targets = bench_engine_overhead
}
criterion_main!(benches);
