//! Fuzz every BXSA reader against the same untrusted bytes: the tree
//! decoder (fresh and dirty-slot), the pull reader, the allocation-free
//! field reader, the skip scanner with its array-payload reader, and the
//! standalone-element decoder each streamed part goes through.
//!
//! Oracles beyond "don't panic":
//! * Fresh decode and dirty-slot `decode_into` must agree byte for byte.
//! * A document that decodes must re-encode canonically and decode back
//!   to itself (idempotence — the wrong-value detector).
//! * The pull reader accepts the input, driven to completion with every
//!   array read, exactly when the tree decoder does.
//! * The field reader accepts the input, every top-level frame skipped
//!   and the document finished, exactly when the tree decoder does.
//! * A decoded document, and the same document with every array grown
//!   past the 4 KiB mark where a gathering encode leaves arrays in place,
//!   encodes to the same bytes gathered (`encode_parts_into`, the parts
//!   concatenated) as flat, in both byte orders, with and without a
//!   checksum, and with too few part slots for every array. The same
//!   holds for the typed writer's two-pass gathered encode
//!   (`FrameWriter::set_gather`, then `replay`) of a typed message shaped
//!   like the document.
//! * The field reader's in-place array read (`read_array_view`) and its
//!   copying read (`read_array_into`) accept the same array frames with
//!   the same values or the same error, for every primitive type, with
//!   the input at an aligned and at an odd address.
//! * The input received into a `Scatter` (large native-order arrays
//!   placed in typed slots) under several read splits reads as the flat
//!   input reads: the same values, or an error of the same kind. The
//!   same holds for a decoded document with its arrays grown past 4 KiB,
//!   encoded in the machine's order, where arrays are placed.

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

/// Walk every top-level frame with `skip` alone, then `finish`.
fn drive_field_reader(data: &[u8]) -> Result<(), bxsa::BxsaError> {
    let mut fr = bxsa::FieldReader::new(data)?;
    for _ in 0..fr.top_count() {
        let head = fr.open()?;
        fr.skip(&head)?;
    }
    fr.finish()
}

/// The values' bytes, so NaN payloads compare bit for bit.
fn bits<T: xbs::Primitive>(values: &[T]) -> Vec<u8> {
    let mut out = vec![0; values.len() * T::WIDTH];
    for (v, slot) in values.iter().zip(out.chunks_exact_mut(T::WIDTH)) {
        v.write_bytes(xbs::ByteOrder::Little, slot);
    }
    out
}

/// Read the array frame `head` as a `T` both ways, from copies of `r`;
/// they must agree. Returns the reader past the frame when it read.
fn view_vs_copy<'a, T: xbs::Primitive>(
    r: &bxsa::FieldReader<'a>,
    head: &bxsa::ElementHead<'a>,
) -> Option<bxsa::FieldReader<'a>> {
    let (mut viewed, mut copied) = (r.clone(), r.clone());
    let view = viewed.read_array_view::<T>(head);
    let mut out = Vec::new();
    let copy = copied.read_array_into::<T>(head, &mut out).map(|()| out);
    match (view, copy) {
        (Ok(view), Ok(copy)) => {
            assert_eq!(
                bits(&view),
                bits(&copy),
                "the view read other values than the copy"
            );
            assert_eq!(viewed.position(), copied.position());
            Some(viewed)
        }
        (Err(a), Err(b)) => {
            assert_eq!(a, b, "the view and the copy refused differently");
            None
        }
        (view, copy) => panic!("the view and the copy disagree: {view:?} vs {copy:?}"),
    }
}

/// Walk one frame and everything in it, checking every array frame
/// with [`view_vs_copy`] under each primitive type.
fn walk_views(r: &mut bxsa::FieldReader<'_>) -> Result<(), bxsa::BxsaError> {
    let head = r.open()?;
    match head.kind {
        bxsa::FrameType::Component => {
            for _ in 0..head.child_count {
                walk_views(r)?;
            }
            r.close(&head)
        }
        bxsa::FrameType::Array => {
            let read = [
                view_vs_copy::<i8>(r, &head),
                view_vs_copy::<u8>(r, &head),
                view_vs_copy::<i16>(r, &head),
                view_vs_copy::<u16>(r, &head),
                view_vs_copy::<i32>(r, &head),
                view_vs_copy::<u32>(r, &head),
                view_vs_copy::<i64>(r, &head),
                view_vs_copy::<u64>(r, &head),
                view_vs_copy::<f32>(r, &head),
                view_vs_copy::<f64>(r, &head),
            ];
            match read.into_iter().flatten().next() {
                Some(past) => *r = past,
                None => r.skip(&head)?,
            }
            Ok(())
        }
        _ => r.skip(&head),
    }
}

/// [`walk_views`] over the whole document, at an 8-aligned and at an
/// odd address.
fn drive_views(data: &[u8]) {
    for shift in [0, 1] {
        let mut buf = Vec::with_capacity(data.len() + 16);
        let start = (8 - buf.as_ptr() as usize % 8) % 8 + shift;
        buf.resize(start, 0);
        buf.extend_from_slice(data);
        let Ok(mut r) = bxsa::FieldReader::new(&buf[start..]) else {
            return;
        };
        for _ in 0..r.top_count().min(1_000) {
            if walk_views(&mut r).is_err() {
                break;
            }
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

/// Repeat a non-empty array's values until its payload reaches 4 KiB.
fn grow<T: Copy>(v: &mut Vec<T>) {
    if v.is_empty() {
        return;
    }
    while std::mem::size_of_val(v.as_slice()) < 4096 {
        v.extend_from_within(..);
    }
}

/// Grow every array under `node` past the gather threshold.
fn inflate(node: &mut bxdm::Node) {
    let bxdm::Node::Element(e) = node else {
        return;
    };
    match &mut e.content {
        bxdm::Content::Children(children) => children.iter_mut().for_each(inflate),
        bxdm::Content::Leaf(_) => {}
        bxdm::Content::Array(a) => match a {
            bxdm::ArrayValue::I8(v) => grow(v),
            bxdm::ArrayValue::U8(v) => grow(v),
            bxdm::ArrayValue::I16(v) => grow(v),
            bxdm::ArrayValue::U16(v) => grow(v),
            bxdm::ArrayValue::I32(v) => grow(v),
            bxdm::ArrayValue::U32(v) => grow(v),
            bxdm::ArrayValue::I64(v) => grow(v),
            bxdm::ArrayValue::U64(v) => grow(v),
            bxdm::ArrayValue::F32(v) => grow(v),
            bxdm::ArrayValue::F64(v) => grow(v),
        },
    }
}

/// Gathered parts, concatenated, equal the flat encode byte for byte.
fn gathered_equals_flat(doc: &bxdm::Document) {
    let native = xbs::ByteOrder::native();
    let foreign = match native {
        xbs::ByteOrder::Little => xbs::ByteOrder::Big,
        xbs::ByteOrder::Big => xbs::ByteOrder::Little,
    };
    for byte_order in [native, foreign] {
        for checksum in [false, true] {
            let opts = bxsa::EncodeOptions {
                byte_order,
                checksum,
            };
            let flat = bxsa::encode_with(doc, &opts).expect("decoded document must re-encode");
            for slots in [1, 4, 2 * bxsa::MAX_REFS + 1] {
                let mut head = Vec::new();
                let mut parts = vec![&[][..]; slots];
                let n = bxsa::encode_parts_into(doc, &opts, &mut head, &mut parts)
                    .expect("gathering encode must accept what the flat one does");
                assert_eq!(
                    parts[..n].concat(),
                    flat,
                    "gathered parts differ from the flat encode"
                );
            }
        }
    }
}

/// The typed message a document's elements shape: each component
/// element a component `c` of its child elements, each leaf a leaf `n`,
/// each array an array `a` of its values (typed names are static).
fn typed_bound(e: &bxdm::Element) -> usize {
    use bxsa::estimate::{framed, plain_array_body_bound, plain_component_body_bound};
    match &e.content {
        bxdm::Content::Children(_) => {
            let (count, body) = e.child_elements().fold((0, 0), |(count, body), child| {
                (count + 1, body + framed(typed_bound(child)))
            });
            plain_component_body_bound("c", &[], count, body)
        }
        bxdm::Content::Leaf(_) => {
            bxsa::estimate::plain_leaf_body_bound("n", &[], xbs::TypeCode::I64, 0)
        }
        bxdm::Content::Array(a) => plain_array_body_bound("a", &[], a.type_code(), a.len()),
    }
}

fn typed_write(w: &mut bxsa::FrameWriter<'_>, e: &bxdm::Element) -> bxsa::BxsaResult<()> {
    let name = |local| bxsa::TypedName::new(None, local);
    match &e.content {
        bxdm::Content::Children(_) => {
            let count = e.child_elements().count();
            w.begin_component(name("c"), &[], count, typed_bound(e))?;
            for child in e.child_elements() {
                typed_write(w, child)?;
            }
            w.end_component()
        }
        bxdm::Content::Leaf(_) => w.leaf(name("n"), &[], 0i64),
        bxdm::Content::Array(a) => match a {
            bxdm::ArrayValue::I8(v) => w.array(name("a"), &[], v),
            bxdm::ArrayValue::U8(v) => w.array(name("a"), &[], v),
            bxdm::ArrayValue::I16(v) => w.array(name("a"), &[], v),
            bxdm::ArrayValue::U16(v) => w.array(name("a"), &[], v),
            bxdm::ArrayValue::I32(v) => w.array(name("a"), &[], v),
            bxdm::ArrayValue::U32(v) => w.array(name("a"), &[], v),
            bxdm::ArrayValue::I64(v) => w.array(name("a"), &[], v),
            bxdm::ArrayValue::U64(v) => w.array(name("a"), &[], v),
            bxdm::ArrayValue::F32(v) => w.array(name("a"), &[], v),
            bxdm::ArrayValue::F64(v) => w.array(name("a"), &[], v),
        },
    }
}

/// The typed two-pass gathered encode of each top-level element's typed
/// message, its pieces concatenated, equals the flat typed encode.
fn typed_gathered_equals_flat(doc: &bxdm::Document) {
    let native = xbs::ByteOrder::native();
    let foreign = match native {
        xbs::ByteOrder::Little => xbs::ByteOrder::Big,
        xbs::ByteOrder::Big => xbs::ByteOrder::Little,
    };
    for root in doc.children.iter().filter_map(bxdm::Node::as_element) {
        let bound = bxsa::FrameWriter::document_bound(typed_bound(root));
        for order in [native, foreign] {
            for checksum in [false, true] {
                let mut w = bxsa::FrameWriter::new(order);
                w.set_checksum(checksum);
                let mut flat = Vec::new();
                w.begin_document(&mut flat, 1, bound);
                typed_write(&mut w, root).expect("typed encode of a decoded shape");
                w.finish_document(&mut flat).unwrap();
                w.set_gather(true);
                let mut head = Vec::new();
                w.begin_document(&mut head, 1, bound);
                typed_write(&mut w, root).expect("gathering typed encode");
                w.finish_document(&mut head).unwrap();
                let mut gathered = Vec::new();
                let mut sink = |h: &[u8], payload: &[u8]| {
                    gathered.extend_from_slice(h);
                    gathered.extend_from_slice(payload);
                };
                let mut replay = w.replay(&head, &mut sink);
                typed_write(&mut replay, root).expect("replay of the same message");
                replay.finish_replay().expect("replay reached every array");
                assert_eq!(
                    gathered, flat,
                    "typed gathered pieces differ from the flat encode"
                );
            }
        }
    }
}

/// Everything a schema-free typed decode reads: each array's bytes (read
/// with the typed reader of its type), each leaf value, in document
/// order; then the document's end.
fn read_all(r: &mut bxsa::FieldReader<'_>) -> Result<Vec<Vec<u8>>, bxsa::BxsaError> {
    fn read<'a, T: xbs::Primitive>(
        r: &mut bxsa::FieldReader<'a>,
        h: &bxsa::ElementHead<'a>,
    ) -> Result<Vec<u8>, bxsa::BxsaError> {
        let mut out = Vec::new();
        r.read_array_into::<T>(h, &mut out)?;
        Ok(bits(&out))
    }
    fn walk<'a>(
        r: &mut bxsa::FieldReader<'a>,
        h: &bxsa::ElementHead<'a>,
        seen: &mut Vec<Vec<u8>>,
    ) -> Result<(), bxsa::BxsaError> {
        use bxsa::FrameType;
        match h.kind {
            FrameType::Component => {
                for _ in 0..h.child_count {
                    let c = r.open()?;
                    walk(r, &c, seen)?;
                }
                r.close(h)
            }
            FrameType::Array => {
                let values = if r.is_array_of::<i8>(h) {
                    read::<i8>(r, h)
                } else if r.is_array_of::<u8>(h) {
                    read::<u8>(r, h)
                } else if r.is_array_of::<i16>(h) {
                    read::<i16>(r, h)
                } else if r.is_array_of::<u16>(h) {
                    read::<u16>(r, h)
                } else if r.is_array_of::<i32>(h) {
                    read::<i32>(r, h)
                } else if r.is_array_of::<u32>(h) {
                    read::<u32>(r, h)
                } else if r.is_array_of::<i64>(h) {
                    read::<i64>(r, h)
                } else if r.is_array_of::<u64>(h) {
                    read::<u64>(r, h)
                } else if r.is_array_of::<f32>(h) {
                    read::<f32>(r, h)
                } else {
                    read::<f64>(r, h)
                }?;
                seen.push(values);
                Ok(())
            }
            FrameType::Leaf => {
                seen.push(format!("{:?}", r.read_leaf(h)?).into_bytes());
                Ok(())
            }
            _ => r.skip(h),
        }
    }
    let mut seen = Vec::new();
    for _ in 0..r.top_count() {
        let h = r.open()?;
        walk(r, &h, &mut seen)?;
    }
    r.finish()?;
    Ok(seen)
}

/// `data` received into a `Scatter` in reads of each of several sizes
/// reads as the flat `data` reads.
fn scattered_equals_flat(data: &[u8]) {
    let flat = bxsa::FieldReader::new(data).and_then(|mut r| read_all(&mut r));
    let mut s = bxsa::Scatter::new();
    let first = usize::from(data.first().copied().unwrap_or(0));
    for split in [1 + first * 37, 4096, usize::MAX] {
        s.begin(data.len());
        let mut from = 0;
        loop {
            let buf = s.next_buf(1 << 20);
            if buf.is_empty() {
                break;
            }
            let n = buf.len().min(split);
            buf[..n].copy_from_slice(&data[from..from + n]);
            from += n;
            s.filled(n);
        }
        let scattered = s.reader().and_then(|mut r| read_all(&mut r));
        match (&flat, &scattered) {
            (Ok(a), Ok(b)) => assert!(a == b, "scattered values differ from the flat read"),
            (Err(a), Err(b)) => assert_eq!(
                std::mem::discriminant(a),
                std::mem::discriminant(b),
                "scattered error {b:?}, flat error {a:?}"
            ),
            _ => panic!("flat read {flat:?}, scattered read {scattered:?}"),
        }
        assert_eq!(s.flatten().len(), data.len());
    }
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
            drive_field_reader(data).expect("field reader rejected tree-decodable input");
            gathered_equals_flat(doc);
            typed_gathered_equals_flat(doc);
            let mut grown = doc.clone();
            grown.children.iter_mut().for_each(inflate);
            gathered_equals_flat(&grown);
            typed_gathered_equals_flat(&grown);
            let native = bxsa::EncodeOptions {
                byte_order: xbs::ByteOrder::native(),
                checksum: false,
            };
            if let Ok(bytes) = bxsa::encode_with(&grown, &native) {
                scattered_equals_flat(&bytes);
            }
        }
        Err(e) => {
            assert!(
                drive_pull(data).is_err(),
                "pull reader accepted input the tree decoder rejected: {e}"
            );
            assert!(
                drive_field_reader(data).is_err(),
                "field reader accepted input the tree decoder rejected: {e}"
            );
        }
    }

    drive_views(data);
    drive_scanner(data);
    scattered_equals_flat(data);
    let _ = bxsa::decode_element(data);
});
