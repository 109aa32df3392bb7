//! Regenerate the binary seed corpora under `fuzz/corpus/` from the
//! production encoders, so seeds stay in sync with the wire format.
//!
//!     cargo run --release --manifest-path fuzz/Cargo.toml --bin gen_corpus
//!
//! Text seeds (XML, HTTP, numbers) are plain checked-in files and are
//! not touched here.

use std::fs;
use std::path::Path;

use bxdm::{ArrayValue, AtomicValue, Document, Element};
use xbs::ByteOrder;

fn sample_doc() -> Document {
    Document::with_root(
        Element::component("d:run")
            .with_namespace("d", "http://example.org/data")
            .with_child(Element::leaf("d:step", AtomicValue::I64(42)))
            .with_child(Element::leaf("d:name", AtomicValue::Str("field".into())))
            .with_child(Element::array(
                "d:values",
                ArrayValue::F64((0..16).map(f64::from).collect()),
            )),
    )
}

fn mixed_doc() -> Document {
    Document::with_root(
        Element::component("m:msg")
            .with_namespace("m", "urn:mixed")
            .with_child(Element::leaf("m:flag", AtomicValue::Bool(true)))
            .with_child(Element::leaf("m:tiny", AtomicValue::I32(-7)))
            .with_child(Element::array("m:b", ArrayValue::U8((0..64).collect())))
            .with_child(Element::array(
                "m:f",
                ArrayValue::F32((0..5).map(|i| i as f32 * 0.5).collect()),
            )),
    )
}

fn write(dir: &Path, name: &str, bytes: &[u8]) {
    fs::create_dir_all(dir).unwrap();
    fs::write(dir.join(name), bytes).unwrap();
    println!("  {} ({} bytes)", dir.join(name).display(), bytes.len());
}

fn main() {
    let _ = libfuzzer_sys::instrumented(); // link anchor for sancov builds
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus");

    let le = bxsa::encode(&sample_doc()).unwrap();
    let be = bxsa::encode_with(
        &sample_doc(),
        &bxsa::EncodeOptions {
            byte_order: ByteOrder::Big,
            ..Default::default()
        },
    )
    .unwrap();
    let checked = bxsa::encode_with(
        &mixed_doc(),
        &bxsa::EncodeOptions {
            checksum: true,
            ..Default::default()
        },
    )
    .unwrap();
    let part = bxsa::encode_element(
        &Element::component("p:part")
            .with_namespace("p", "urn:p")
            .with_child(Element::leaf("p:n", AtomicValue::I64(3))),
        &bxsa::EncodeOptions::default(),
    )
    .unwrap();

    for target in ["fuzz_bxsa", "fuzz_transcode"] {
        let dir = root.join(target);
        write(&dir, "doc_le.bin", &le);
        write(&dir, "doc_be.bin", &be);
        write(&dir, "doc_checksummed.bin", &checked);
        write(&dir, "part.bin", &part);
    }

    // Scatter seeds: native-order documents whose arrays are placed.
    let native = bxsa::EncodeOptions {
        byte_order: ByteOrder::native(),
        ..Default::default()
    };
    let placed = Document::with_root(
        Element::component("p:r")
            .with_namespace("p", "urn:p")
            .with_child(Element::leaf("p:n", AtomicValue::I64(2)))
            .with_child(
                Element::component("p:h").with_child(Element::array(
                    "p:i",
                    ArrayValue::I32((0..1100).collect()),
                )),
            )
            .with_child(Element::array(
                "p:v",
                ArrayValue::F64((0..600).map(|i| f64::from(i) * 0.5).collect()),
            )),
    );
    let dir = root.join("fuzz_bxsa");
    write(&dir, "placed_arrays.bin", &bxsa::encode_with(&placed, &native).unwrap());
    let mut cut = bxsa::encode_with(&placed, &native).unwrap();
    cut.truncate(cut.len() - 7);
    write(&dir, "placed_arrays_cut.bin", &cut);

    // xbs seeds: an opcode script prefix (first byte selects the split)
    // ahead of real encoded frames gives the reader loop live data.
    let dir = root.join("fuzz_xbs");
    let mut seed = vec![3u8, 1, 2, 7, 8];
    seed.extend_from_slice(&le);
    write(&dir, "script_doc.bin", &seed);
    let mut w = xbs::XbsWriter::new(ByteOrder::Little);
    w.put_vls(u64::MAX);
    w.put_vls(300);
    w.put_vls(0);
    let mut seed = vec![2u8, 1, 1, 1];
    seed.extend_from_slice(w.as_bytes());
    write(&dir, "script_vls.bin", &seed);
}
