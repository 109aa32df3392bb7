//! Fuzz every BXSA reader against the same untrusted bytes: the tree
//! decoder (fresh and dirty-slot), the pull reader, the allocation-free
//! field reader, the skip scanner with its array-payload reader, and the
//! streaming frame assembler.
//!
//! Oracles beyond "don't panic":
//! * Fresh decode and dirty-slot `decode_into` must agree byte for byte.
//! * A document that decodes must re-encode canonically and decode back
//!   to itself (idempotence — the wrong-value detector).
//! * The pull reader accepts the input, driven to completion with every
//!   array read, exactly when the tree decoder does.

use libfuzzer_sys::fuzz_target;

fn drive_pull(data: &[u8]) -> Result<usize, bxsa::BxsaError> {
    let mut r = bxsa::PullReader::new(data)?;
    let mut events = 0usize;
    while let Some(event) = r.next_event()? {
        events += 1;
        if let bxsa::PullEvent::Array(a) = event {
            let _ = a.read()?;
        }
        if events > 1_000_000 {
            break;
        }
    }
    Ok(events)
}

fn drive_field_reader(data: &[u8]) {
    let Ok(mut fr) = bxsa::FieldReader::new(data) else {
        return;
    };
    for _ in 0..100_000 {
        match fr.open() {
            Ok(head) => {
                if fr.skip(&head).is_err() {
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

fn drive_scanner(data: &[u8]) {
    let Ok(scanner) = bxsa::FrameScanner::document(data) else {
        return;
    };
    for info in scanner.take(100_000) {
        let Ok(info) = info else {
            return;
        };
        if info.frame_type == bxsa::FrameType::Array {
            let _ = bxsa::scan::array_payload_copy::<f64>(data, &info);
            let _ = bxsa::scan::array_payload_copy::<i32>(data, &info);
        }
    }
}

fn drive_assembler(data: &[u8]) {
    let mut asm = bxsa::FrameAssembler::new(bxsa::DEFAULT_WINDOW);
    for piece in data.chunks(7) {
        asm.feed(piece);
        loop {
            match asm.next_frame() {
                Ok(Some(frame)) => {
                    let _ = bxsa::decode_element(frame);
                }
                Ok(None) => break,
                Err(_) => return,
            }
        }
    }
    asm.finish();
    while let Ok(Some(_)) = asm.next_frame() {}
}

fuzz_target!(|data: &[u8]| {
    let fresh = bxsa::decode(data);

    // Dirty-slot decode into a document already holding other content.
    let mut slot = bxsa::decode(
        &bxsa::encode(&bxdm::Document::with_root(
            bxdm::Element::component("x:old")
                .with_namespace("x", "urn:previous")
                .with_child(bxdm::Element::leaf("x:v", bxdm::AtomicValue::I64(-1)))
                .with_child(bxdm::Element::array(
                    "x:a",
                    bxdm::ArrayValue::F32(vec![1.0; 9]),
                )),
        ))
        .unwrap(),
    )
    .unwrap();
    let reused = bxsa::decode_into(data, &mut slot);
    assert_eq!(
        fresh.is_ok(),
        reused.is_ok(),
        "decode and decode_into disagree on acceptance"
    );

    match &fresh {
        Ok(doc) => {
            // Compare via canonical bytes, not `==`: a hostile input can
            // carry NaN payloads, and NaN != NaN would fail tree equality
            // on documents that are in fact bit-identical.
            let re = bxsa::encode(doc).expect("decoded document must re-encode");
            let re_slot = bxsa::encode(&slot).expect("dirty-slot document must re-encode");
            assert_eq!(re_slot, re, "dirty-slot decode_into diverged from decode");
            // Idempotence: canonical re-encode must decode back to a tree
            // that re-encodes to the same bytes (the wrong-value detector).
            let back = bxsa::decode(&re).expect("re-encoded document must decode");
            let re2 = bxsa::encode(&back).expect("round-tripped document must re-encode");
            assert_eq!(re2, re, "re-encode round trip changed the document");
            drive_pull(data).expect("pull reader rejected tree-decodable input");
        }
        Err(e) => {
            assert!(
                drive_pull(data).is_err(),
                "pull reader accepted input the tree decoder rejected: {e}"
            );
        }
    }

    drive_field_reader(data);
    drive_scanner(data);
    drive_assembler(data);
});
