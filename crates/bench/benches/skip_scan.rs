//! Ablation A5: accelerated sequential access (paper §4.1).
//!
//! "The Size field ... enables the accelerated sequential access ability,
//! by which we can sequentially scan frames without fully parsing all
//! parts of the document." A document with many sibling array frames is
//! scanned to locate the last one — by full decode vs by size-hopping.

use bxdm::{ArrayValue, AtomicValue, Document, Element};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

/// `frames` sibling records, each holding a 1,000-double array.
fn multi_frame_doc(frames: usize) -> Vec<u8> {
    let (_, values) = bxsoap::lead_dataset(1_000, 42);
    let mut root = Element::component("archive");
    for i in 0..frames {
        root.push_child(
            Element::component("record")
                .with_child(Element::leaf("seq", AtomicValue::I64(i as i64)))
                .with_child(Element::array("v", ArrayValue::F64(values.clone()))),
        );
    }
    bxsa::encode(&Document::with_root(root)).expect("encode")
}

fn bench_skip_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("skip_scan");
    for &frames in &[16usize, 256] {
        let bytes = multi_frame_doc(frames);

        // Baseline: decode everything, then look at the last record.
        group.bench_with_input(
            BenchmarkId::new("full_parse", frames),
            &bytes,
            |b, bytes| {
                b.iter(|| {
                    let doc = bxsa::decode(bytes).expect("decode");
                    let root = doc.root().unwrap();
                    let last = root.child_elements().last().unwrap();
                    last.find_child("seq")
                        .and_then(|e| e.leaf_value())
                        .cloned()
                })
            },
        );

        // Skip-scan: hop over sibling frames by their size fields; only
        // the root's header and the frame prefixes are touched.
        group.bench_with_input(
            BenchmarkId::new("size_hop", frames),
            &bytes,
            |b, bytes| {
                b.iter(|| {
                    let root = bxsa::FrameScanner::document(bytes)
                        .expect("scan")
                        .next()
                        .expect("root")
                        .expect("ok");
                    // The component frame's children start after its
                    // header; locate them with a range scan by hopping
                    // from the first child (decode only the *last*).
                    let mut last = None;
                    for info in
                        child_range_scan(bytes, &root).expect("child scan")
                    {
                        last = Some(info.expect("frame"));
                    }
                    let last = last.expect("at least one child");
                    bxsa::decoder::decode_element_at(bytes, last.start)
                        .expect("decode last")
                        .find_child("seq")
                        .and_then(|e| e.leaf_value())
                        .cloned()
                })
            },
        );
    }
    group.finish();
}

/// Scan the children of a component frame without parsing them: skip the
/// element header fields, read the child count, then hop frame to frame.
fn child_range_scan<'a>(
    bytes: &'a [u8],
    root: &bxsa::scan::FrameInfo,
) -> Result<bxsa::FrameScanner<'a>, bxsa::BxsaError> {
    // The cheapest correct way to find the children region in this bench:
    // the first child frame begins right after the root's header, which
    // we locate by scanning for the first valid frame prefix after the
    // attribute block. For the bench document the root has no
    // namespaces/attributes and a short name, so parse the few header
    // fields directly with an XbsReader.
    use xbs::XbsReader;
    let mut r = XbsReader::new(bytes, root.byte_order);
    r.seek(root.body_start)?;
    let n1 = r.read_count(2)?; // namespace decls
    for _ in 0..n1 {
        r.read_str()?;
        r.read_str()?;
    }
    let tag = r.read_vls()?; // element name ns ref
    if tag != 0 {
        r.read_vls()?;
    }
    r.read_str()?; // local name
    let n2 = r.read_count(3)?; // attributes (none in this document)
    assert_eq!(n2, 0, "bench document has no root attributes");
    let _child_count = r.read_vls()?;
    Ok(bxsa::FrameScanner::range(
        bytes,
        r.position(),
        root.start + root.len,
    ))
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(400))
        .measurement_time(std::time::Duration::from_millis(1500))
        .sample_size(20);
    targets = bench_skip_scan
}
criterion_main!(benches);
