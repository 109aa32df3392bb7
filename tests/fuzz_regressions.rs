//! Minimized regression tests for bugs surfaced by the fuzz targets
//! (`fuzz/fuzz_targets/`), the hostile-length audit and the cross-reader
//! audit (inputs one BXSA reader rejected and another accepted). Each
//! test embeds its reproducer inline; the same bytes are checked into the
//! seed corpora under `fuzz/corpus/` so every future fuzz run replays
//! them.
//!
//! The inputs here must *error cleanly* — the bugs they pin were
//! panics, integer overflows, or silent wrong-value acceptance.

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use bxdm::{AtomicValue, Element};
use soap::{
    BxsaEncoding, EncodingPolicy, HttpSoapServer, ServiceRegistry, SoapEnvelope,
    SoapResult, SoapService, StreamOp,
};
use transport::http::chunked::{ChunkDecoder, ChunkEvent};

/// Drive the pull reader to the end of the document.
fn pull_to_end(bytes: &[u8]) -> bxsa::BxsaResult<()> {
    let mut r = bxsa::PullReader::new(bytes)?;
    while r.next_event()?.is_some() {}
    Ok(())
}

/// Drive every BXSA reader over one hostile input; none may panic, and
/// all must reject it.
fn all_bxsa_readers_reject(bytes: &[u8], label: &str) {
    assert!(bxsa::decode(bytes).is_err(), "tree decode accepted {label}");
    let field_walk = || -> bxsa::BxsaResult<()> {
        let mut fr = bxsa::FieldReader::new(bytes)?;
        for _ in 0..fr.top_count() {
            let head = fr.open()?;
            fr.skip(&head)?;
        }
        fr.finish()
    };
    assert!(field_walk().is_err(), "field reader accepted {label}");
    assert!(pull_to_end(bytes).is_err(), "pull reader accepted {label}");
    // The skip scanner: a frame found at any offset must fit the buffer,
    // and a scan over the whole input must surface an error.
    for offset in 0..bytes.len() {
        if let Ok(info) = bxsa::scan::peek_frame(bytes, offset) {
            assert!(
                info.start + info.len <= bytes.len(),
                "peek at {offset} overran {label}"
            );
        }
    }
    assert!(
        bxsa::FrameScanner::range(bytes, 0, bytes.len()).any(|f| f.is_err()),
        "range scan accepted {label}"
    );
}

/// A small document every reader can walk: a root holding an `i32` leaf
/// named `abc` and a `bool` leaf named `ok`.
fn probe_doc(checksum: bool) -> Vec<u8> {
    let doc = bxdm::Document::with_root(
        Element::component("r")
            .with_child(Element::leaf("abc", AtomicValue::I32(7)))
            .with_child(Element::leaf("ok", AtomicValue::Bool(true))),
    );
    let opts = bxsa::EncodeOptions {
        checksum,
        ..Default::default()
    };
    bxsa::encode_with(&doc, &opts).unwrap()
}

/// The schema-known read of [`probe_doc`] a typed decoder makes, ending
/// with the document-end and trailer check.
fn field_read_probe(bytes: &[u8]) -> bxsa::BxsaResult<(i32, bool)> {
    let mut fr = bxsa::FieldReader::new(bytes)?;
    let root = fr.open()?;
    let (mut n, mut ok) = (0, false);
    for _ in 0..root.child_count {
        let f = fr.open()?;
        match f.local {
            "abc" => n = fr.read_value::<i32>(&f)?,
            "ok" => ok = fr.read_bool(&f)?,
            _ => fr.skip(&f)?,
        }
    }
    fr.close(&root)?;
    fr.finish()?;
    Ok((n, ok))
}

/// The tree decoder, the pull reader and a field read followed by
/// `finish` must each reject `bytes`.
fn every_reader_rejects(bytes: &[u8], label: &str) {
    assert!(bxsa::decode(bytes).is_err(), "tree decode accepted {label}");
    assert!(pull_to_end(bytes).is_err(), "pull reader accepted {label}");
    assert!(
        field_read_probe(bytes).is_err(),
        "field reader accepted {label}"
    );
}

#[test]
fn probe_document_reads_the_same_on_every_reader() {
    for checksum in [false, true] {
        let bytes = probe_doc(checksum);
        assert!(bxsa::decode(&bytes).is_ok());
        assert!(pull_to_end(&bytes).is_ok());
        assert_eq!(field_read_probe(&bytes).unwrap(), (7, true));
    }
}

#[test]
fn every_reader_rejects_a_local_name_that_is_not_an_xml_name() {
    // Cross-reader audit: only the tree decoder checked local names, so the pull
    // reader and the field reader accepted an element named `<bc`.
    let mut bytes = probe_doc(false);
    let at = bytes.windows(3).position(|w| w == b"abc").unwrap();
    bytes[at] = b'<';
    every_reader_rejects(&bytes, "local name <bc");
}

#[test]
fn every_reader_rejects_a_bool_byte_other_than_0_or_1() {
    // Cross-reader audit: `FieldReader::read_bool` read any nonzero byte as `true`.
    let mut bytes = probe_doc(false);
    let at = bytes.windows(2).rposition(|w| w == [0x0c, 0x01]).unwrap();
    bytes[at + 1] = 0x02;
    every_reader_rejects(&bytes, "bool byte 0x02");
}

#[test]
fn every_reader_rejects_a_trailing_byte() {
    // Cross-reader audit: the field reader never looked past the top-level frame.
    let mut bytes = probe_doc(false);
    bytes.push(0x00);
    every_reader_rejects(&bytes, "one trailing byte");
}

#[test]
fn every_reader_rejects_a_corrupted_checksum_trailer() {
    // Cross-reader audit: the field reader never verified the CRC32C trailer, so a
    // corrupted checksummed message read back as if it were intact.
    let mut bytes = probe_doc(true);
    *bytes.last_mut().unwrap() ^= 0x01;
    every_reader_rejects(&bytes, "flipped CRC trailer");
}

#[test]
fn hostile_frame_sizes_cannot_overflow_the_pull_reader() {
    // Found by fuzz_bxsa (overflow-checks build): a document frame
    // declaring a u64::MAX size made `start + size` overflow usize in
    // `PullReader::new`, panicking in debug and wrapping — so passing
    // the `<= buf.len()` bound with a tiny bogus end — in release.
    let mut huge = vec![0x01]; // Little-endian Document prefix
    xbs::vls::write_vls(&mut huge, u64::MAX);
    all_bxsa_readers_reject(&huge, "u64::MAX document size");

    // The wrap-to-small shape: start + size ≡ 1 (mod 2^64), which
    // pre-fix produced doc_end *before* the read position.
    let mut wrap = vec![0x01];
    let start = 1 + xbs::vls::vls_len(u64::MAX - 10) as u64;
    xbs::vls::write_vls(&mut wrap, u64::MAX - start);
    all_bxsa_readers_reject(&wrap, "wrapping document size");

    // Same overflow one level down: a valid document header whose child
    // frame declares the hostile size.
    let doc = bxsa::encode(&bxdm::Document::with_root(Element::component("r"))).unwrap();
    let mut inner = doc[..doc.len() - 1].to_vec(); // keep header, drop root
    inner.push(0x02); // Component prefix
    xbs::vls::write_vls(&mut inner, u64::MAX);
    all_bxsa_readers_reject(&inner, "u64::MAX child frame size");
}

#[test]
fn standalone_element_decode_demands_end_of_input() {
    // Found by fuzz_bxsa via the checksum acceptance suite:
    // `decode_element` routed through the embedded-frame entry point and
    // never looked past the frame — trailing garbage was silently
    // ignored, and worse, a trailing checksum frame was never verified,
    // so a bit-flipped checksummed part decoded to wrong values.
    let part = Element::component("p:part")
        .with_namespace("p", "urn:p")
        .with_child(Element::leaf("p:n", AtomicValue::I64(3)));
    let opts = bxsa::EncodeOptions::default();
    let bytes = bxsa::encode_element(&part, &opts).unwrap();

    let mut trailing = bytes.clone();
    trailing.extend_from_slice(b"garbage");
    assert!(
        bxsa::decode_element(&trailing).is_err(),
        "trailing bytes after a standalone element must be rejected"
    );

    let checked = bxsa::encode_element(
        &part,
        &bxsa::EncodeOptions {
            checksum: true,
            ..Default::default()
        },
    )
    .unwrap();
    // Flip one bit of the namespace prefix: structurally valid, only the
    // checksum can catch it. Pre-fix this decoded successfully to an
    // element with the wrong prefix.
    let mut corrupt = checked.clone();
    corrupt[5] ^= 0x01;
    assert!(
        bxsa::decode_element(&corrupt).is_err(),
        "bit flip under a checksum must never decode to wrong values"
    );
}

#[test]
fn impossible_civil_dates_are_rejected() {
    // Found by the fuzz_http date oracle: Feb 29 on non-leap years and
    // day 31 of 30-day months were silently normalized into the next
    // month by the days-from-civil arithmetic instead of rejected.
    use transport::http::date::parse_http_date;
    assert!(parse_http_date("Mon, 29 Feb 1900 12:00:00 GMT").is_none());
    assert!(parse_http_date("Wed, 29 Feb 2023 12:00:00 GMT").is_none());
    assert!(parse_http_date("Thu, 31 Sep 2020 12:00:00 GMT").is_none());
    assert!(parse_http_date("Fri, 31 Apr 2020 12:00:00 GMT").is_none());
    assert!(parse_http_date("Sat, 30 Feb 2020 12:00:00 GMT").is_none());
    assert!(parse_http_date("Tue, 31 Nov 2020 12:00:00 GMT").is_none());
    // The real leap days still parse — including the every-400-years one.
    assert!(parse_http_date("Tue, 29 Feb 2000 12:00:00 GMT").is_some());
    assert!(parse_http_date("Thu, 29 Feb 2024 12:00:00 GMT").is_some());
    // RFC 850 and asctime route through the same validation.
    assert!(parse_http_date("Wednesday, 29-Feb-23 12:00:00 GMT").is_none());
    assert!(parse_http_date("Wed Feb 29 12:00:00 2023").is_none());
}

/// Run a full hostile chunked body through the incremental decoder;
/// returns Ok(payload) or the first error.
fn decode_chunked(body: &[u8]) -> Result<Vec<u8>, transport::TransportError> {
    let mut dec = ChunkDecoder::new();
    let mut out = Vec::new();
    let mut rest = body;
    while !rest.is_empty() {
        let (n, event) = dec.advance(rest)?;
        rest = &rest[n..];
        match event {
            ChunkEvent::Data { payload, .. } => out.extend_from_slice(payload),
            ChunkEvent::End => break,
            ChunkEvent::NeedMore => {
                if n == 0 {
                    break;
                }
            }
        }
    }
    Ok(out)
}

#[test]
fn chunk_size_lines_reject_signs_and_overflow() {
    // Hostile-length audit: the chunk-size grammar is hex digits only.
    // A sign prefix must be rejected (a naive `isize` parse would accept
    // "-5" and underflow), and more than 15 hex digits must be rejected
    // outright rather than wrapping the accumulated usize.
    for bad in [
        &b"+5\r\nhello\r\n0\r\n\r\n"[..],
        b"-5\r\nhello\r\n0\r\n\r\n",
        b" 5\r\nhello\r\n0\r\n\r\n",
        b"0x10\r\n0123456789abcdef\r\n0\r\n\r\n",
        b"ffffffffffffffff\r\n\r\n0\r\n\r\n",   // 16 digits: would wrap
        b"10000000000000000\r\n\r\n0\r\n\r\n", // 17 digits
        b"\r\nhello\r\n0\r\n\r\n",             // empty size
        b";ext\r\nhello\r\n0\r\n\r\n",         // extension with no size
    ] {
        assert!(
            decode_chunked(bad).is_err(),
            "hostile size line accepted: {:?}",
            String::from_utf8_lossy(&bad[..bad.len().min(20)])
        );
    }
    // 15 digits is within grammar; the *value* is then bounded by the
    // caller's cap, not the parser.
    let mut r = &b"fffffffffffffff\r\n"[..];
    let mut out = Vec::new();
    let err = transport::http::chunked::read_chunked_body_into(&mut r, &mut out, 1 << 20);
    assert!(err.is_err(), "a 2^60-byte declaration must not be honored");
}

/// Minimal streaming op so the server accepts chunked POSTs.
#[derive(Default)]
struct NullOp;

impl StreamOp for NullOp {
    fn start(&mut self, _manifest: &SoapEnvelope) -> SoapResult<()> {
        Ok(())
    }
    fn on_part(&mut self, _part: &Element) -> SoapResult<()> {
        Ok(())
    }
    fn finish(&mut self) -> SoapResult<SoapEnvelope> {
        Ok(SoapEnvelope::with_body(Element::component("Done")))
    }
    fn next_part(&mut self, _slot: &mut Element) -> SoapResult<bool> {
        Ok(false)
    }
}

#[test]
fn hostile_chunk_size_lines_over_a_live_socket() {
    // The same audit shapes, end to end over raw sockets: the server
    // must answer with an error (or hang up) and the listener must stay
    // serviceable — never a hang, a panic, or a 200.
    let mut service = SoapService::new(BxsaEncoding::default(), Arc::new(ServiceRegistry::new()));
    service.register_streaming("Null", || Box::<NullOp>::default());
    let server = HttpSoapServer::bind_service_with(
        "127.0.0.1:0",
        "/soap",
        transport::HttpServerConfig::default(),
        service,
    )
    .unwrap();
    const HEAD: &str = "POST /soap HTTP/1.1\r\nHost: t\r\nContent-Type: application/x-bxsa\r\nTransfer-Encoding: chunked\r\n\r\n";

    for hostile in [
        &b"+5\r\nhello\r\n0\r\n\r\n"[..],
        b"-5\r\nhello\r\n0\r\n\r\n",
        b"ffffffffffffffff\r\n",
        b"10000000000000000\r\n",
    ] {
        let mut sock = TcpStream::connect(server.local_addr()).unwrap();
        sock.set_read_timeout(Some(Duration::from_millis(500))).unwrap();
        sock.write_all(HEAD.as_bytes()).unwrap();
        let _ = sock.write_all(hostile); // server may already have hung up
        let mut response = Vec::new();
        let mut scratch = [0u8; 4096];
        loop {
            match std::io::Read::read(&mut sock, &mut scratch) {
                Ok(0) | Err(_) => break,
                Ok(n) => response.extend_from_slice(&scratch[..n]),
            }
        }
        let status = String::from_utf8_lossy(&response);
        let status = status.lines().next().unwrap_or_default();
        assert!(
            !status.contains("200"),
            "hostile chunk size line {:?} got {status:?}",
            String::from_utf8_lossy(&hostile[..hostile.len().min(8)])
        );
    }

    // Listener unharmed: a clean exchange still works.
    let mut sock = TcpStream::connect(server.local_addr()).unwrap();
    sock.set_read_timeout(Some(Duration::from_millis(2000))).unwrap();
    let envelope = SoapEnvelope::with_body(Element::component("Null"));
    let manifest = BxsaEncoding::default()
        .encode(&envelope.to_document())
        .unwrap();
    sock.write_all(HEAD.as_bytes()).unwrap();
    let mut chunk = format!("{:x}\r\n", manifest.len()).into_bytes();
    chunk.extend_from_slice(&manifest);
    chunk.extend_from_slice(b"\r\n0\r\n\r\n");
    sock.write_all(&chunk).unwrap();
    let mut response = Vec::new();
    let mut scratch = [0u8; 4096];
    loop {
        match std::io::Read::read(&mut sock, &mut scratch) {
            Ok(0) | Err(_) => break,
            Ok(n) => {
                response.extend_from_slice(&scratch[..n]);
                if response.windows(4).any(|w| w == b"\r\n\r\n") {
                    break;
                }
            }
        }
    }
    let status = String::from_utf8_lossy(&response);
    assert!(
        status.lines().next().unwrap_or_default().contains("200"),
        "listener damaged by hostile size lines: {:?}",
        status.lines().next()
    );
    server.shutdown();
}

#[test]
fn leap_second_and_boundary_times_parse() {
    // Companion to the rejection cases: the RFC 7231 time grammar allows
    // second == 60 (leap second) and the day boundaries.
    use transport::http::date::parse_http_date;
    assert!(parse_http_date("Sat, 30 Jun 2012 23:59:60 GMT").is_some());
    // Pre-epoch dates are rejected by design (nothing to retry-after),
    // so the epoch itself is the low boundary.
    assert!(parse_http_date("Thu, 01 Jan 1970 00:00:00 GMT").is_some());
    assert!(parse_http_date("Wed, 31 Dec 1969 23:59:59 GMT").is_none());
    assert!(parse_http_date("Fri, 31 Dec 9999 23:59:59 GMT").is_some());
}

#[test]
fn bxsa_rejects_content_with_no_xml_serialization() {
    use bxdm::{Document, Node};

    // fuzz_transcode reproducer (minimized): a decodable document whose
    // namespace prefix is "\n". It used to decode cleanly and then make
    // `bxsa_to_xml` emit malformed XML that failed to re-parse.
    let crasher: &[u8] = include_bytes!("../fuzz/corpus/fuzz_transcode/prefix_not_a_name.bin");
    assert!(
        bxsa::decode(crasher).is_err(),
        "a non-name namespace prefix must not decode"
    );

    // The same grammar holes driven through the encoder: a tree with no
    // XML 1.0 serialization must fail to encode rather than mint bytes
    // the transcode path chokes on.
    let mut comment_doc = Element::component("r");
    comment_doc.children_mut().push(Node::Comment("a--b".into()));
    let mut pi_xml = Element::component("r");
    pi_xml.children_mut().push(Node::Pi {
        target: "xml".into(),
        data: String::new(),
    });
    let mut pi_close = Element::component("r");
    pi_close.children_mut().push(Node::Pi {
        target: "t".into(),
        data: "x?>y".into(),
    });
    let mut pi_ws = Element::component("r");
    pi_ws.children_mut().push(Node::Pi {
        target: "t".into(),
        data: " x".into(),
    });
    let cases = [
        (Element::component("1bad"), "numeric-leading local name"),
        (
            Element::component("r").with_namespace("a\nb", "urn:x"),
            "namespace prefix with whitespace",
        ),
        (comment_doc, "'--' inside a comment"),
        (pi_xml, "reserved PI target 'xml'"),
        (pi_close, "'?>' inside PI data"),
        (pi_ws, "PI data with leading whitespace"),
    ];
    for (root, label) in cases {
        assert!(
            bxsa::encode(&Document::with_root(root)).is_err(),
            "encoder accepted {label}"
        );
    }

    // Decoder side of the comment rule, via a byte patch (the encoder
    // now refuses to produce such frames itself).
    let mut root = Element::component("r");
    root.children_mut().push(Node::Comment("xx".into()));
    let mut bytes = bxsa::encode(&Document::with_root(root)).unwrap();
    let pos = bytes
        .windows(2)
        .rposition(|w| w == b"xx")
        .expect("comment text must be on the wire");
    bytes[pos..pos + 2].copy_from_slice(b"--");
    assert!(
        bxsa::decode(&bytes).is_err(),
        "decoder accepted a '--' comment"
    );

    // And the well-formed cousins still round-trip to a transcode
    // fixpoint: comments with single dashes, PIs with data.
    let mut root = Element::component("r");
    root.children_mut().push(Node::Comment(" note - ok ".into()));
    root.children_mut().push(Node::Pi {
        target: "style".into(),
        data: "href='x' type='text/css'".into(),
    });
    let bytes = bxsa::encode(&Document::with_root(root)).unwrap();
    let xml = bxsa::bxsa_to_xml(&bytes).unwrap();
    let canonical = bxsa::xml_to_bxsa(&xml).unwrap();
    assert_eq!(bxsa::bxsa_to_xml(&canonical).unwrap(), xml);
    assert_eq!(bxsa::xml_to_bxsa(&bxsa::bxsa_to_xml(&canonical).unwrap()).unwrap(), canonical);
}

/// Cross-reader audit reproducer: the byte scanner behind the XML array
/// item loop took `<` as a tag-name character, so the typed reader read
/// `[1, 2]` from markup `xmltext::parse` rejects ("expected a name").
#[test]
fn both_xml_readers_reject_lt_inside_an_item_name() {
    let typed = "<v><a<b>1</a<b><a<b>2</a<b></v>";
    let tree = r#"<v bx:arrayType="xsd:int"><a<b>1</a<b></v>"#;
    for xml in [typed, tree] {
        assert!(xmltext::parse(xml).is_err(), "tree reader accepted {xml}");
        let mut r = xmltext::XmlFieldReader::new(xml);
        let xmltext::XmlItem::Start(head) = r.next().unwrap() else {
            panic!("{xml}: expected the array's start tag")
        };
        let mut out: Vec<i32> = Vec::new();
        let read = r.array_into(&head, &mut out);
        assert!(read.is_err(), "typed reader read {out:?} from {xml}");
    }
}

/// Array items are the array's values, not bXDM elements (BXSA has no
/// item frames), so items of an array at `MAX_DEPTH - 1` sit at
/// `MAX_DEPTH` and read; markup nested inside them does not. The plain
/// `</item>` spelling goes through the item scanner, `</item >` only
/// through the event path: both must agree.
#[test]
fn xml_items_at_max_depth_read_the_same_with_and_without_the_scanner() {
    let max = xmltext::MAX_DEPTH;
    let wrap = |depth: usize, inner: &str| {
        format!("{}{inner}{}", "<r>".repeat(depth), "</r>".repeat(depth))
    };
    let cases = [
        (wrap(max - 1, r#"<v bx:arrayType="xsd:int"><item>1</item><item>2</item></v>"#), true),
        (wrap(max - 1, r#"<v bx:arrayType="xsd:int"><item><b>1</b></item></v>"#), false),
        (wrap(max, r#"<v bx:arrayType="xsd:int"><item>1</item></v>"#), false),
    ];
    for (plain, accepted) in cases {
        let spaced = plain.replace("</item>", "</item >");
        let fast = xmltext::parse(&plain);
        let slow = xmltext::parse(&spaced);
        assert_eq!(fast.is_ok(), accepted, "{plain}: {fast:?}");
        assert_eq!(slow.is_ok(), accepted, "{spaced}: {slow:?}");
        if let (Ok(fast), Ok(slow)) = (fast, slow) {
            assert_eq!(fast, slow);
        }
    }
}

/// Decode `xml` as `M` on both typed XML entry points; neither may
/// report a match.
fn typed_xml_rejects<M: soap::FromBxsa>(xml: &str, label: &str) {
    use soap::{TypedDecode, TypedEncoding, TypedRequest};
    let enc = soap::XmlEncoding::default();
    let mut out = M::default();
    let reply = enc.decode_typed_reply(xml.as_bytes(), &mut out);
    assert!(!matches!(reply, Ok(TypedDecode::Matched)), "reply decode matched {label}: {xml}");
    let request = enc.decode_typed_request(xml.as_bytes(), &mut out);
    assert!(
        !matches!(request, Ok(TypedRequest::Matched { .. })),
        "request decode matched {label}: {xml}"
    );
}

/// The five envelope mutants of one typed-encoded message whose body
/// entry closes with `op_close`: cut off after the entry, cut off with an
/// open element after it, a second root, a renamed `Body` end tag and a
/// declaration inside `Body`.
fn envelope_mutants(full: &str, op_close: &str) -> Vec<(&'static str, String)> {
    let cut = &full[..full.find(op_close).unwrap() + op_close.len()];
    vec![
        ("cut after the body entry", cut.to_owned()),
        ("cut, then an open element", format!("{cut}<x>")),
        ("a second root", format!("{full}<extra/>")),
        ("a renamed Body end tag", full.replace("</soapenv:Body>", "</q:Body>")),
        (
            "a declaration inside Body",
            full.replace("<soapenv:Body>", r#"<soapenv:Body><?xml version="1.0"?>"#),
        ),
    ]
}

/// Cross-reader audit reproducers: the typed XML decode returned
/// `Matched` as soon as the body entry was read, so it never closed
/// `Body` and `Envelope` or checked for the end of input, and it matched
/// end tags by local name. A typed server ran its handler on requests
/// the tree decode rejects.
#[test]
fn typed_xml_decode_rejects_envelopes_the_tree_decode_rejects() {
    use soap::TypedEncoding;
    fn check<M: soap::ToBxsa + soap::FromBxsa>(msg: &M, op_close: &str) {
        let enc = soap::XmlEncoding::default();
        let mut wire = Vec::new();
        enc.encode_typed(msg, None, &mut soap::TypedScratch::default(), &mut wire).unwrap();
        let full = String::from_utf8(wire).unwrap();
        let mut back = M::default();
        assert_eq!(
            enc.decode_typed_reply(full.as_bytes(), &mut back).unwrap(),
            soap::TypedDecode::Matched,
            "the unmutated envelope must match: {full}"
        );
        for (label, xml) in envelope_mutants(&full, op_close) {
            assert!(EncodingPolicy::decode(&enc, xml.as_bytes()).is_err(), "tree accepted {label}");
            typed_xml_rejects::<M>(&xml, label);
        }
    }
    let request = bxsoap::VerifyRequest {
        index: vec![0, 1, 2],
        values: vec![180.5, 207.25, 330.0],
    };
    check(&request, "</d:Verify>");
    check(&bxsoap::VerifyResponse { ok: true, count: 3 }, "</VerifyResponse>");
}

/// The typed reader's end tags matched their start tags by local name
/// only, it yielded `Eof` after a second root element, and a typed read
/// ignored an annotation naming another type. `parse` rejects the
/// first four inputs and reads the last as a string leaf.
#[test]
fn typed_xml_reader_matches_full_names_and_annotations() {
    use xmltext::{XmlFieldReader, XmlItem};
    fn first(r: &mut XmlFieldReader<'static>, xml: &str) -> xmltext::XmlHead<'static> {
        match r.next() {
            Ok(XmlItem::Start(head)) => head,
            other => panic!("{xml}: expected a start tag, got {other:?}"),
        }
    }
    fn walk(xml: &'static str) -> xmltext::XmlResult<()> {
        let mut r = XmlFieldReader::new(xml);
        while r.next()? != XmlItem::Eof {}
        Ok(())
    }

    let leaf = "<a:v>1</b:v>";
    let mut r = XmlFieldReader::new(leaf);
    let head = first(&mut r, leaf);
    assert!(r.leaf_value::<i64>(&head).is_err(), "leaf_value read {leaf}");

    let array = "<p:v><item>1</item></q:v>";
    let mut r = XmlFieldReader::new(array);
    let head = first(&mut r, array);
    let mut items: Vec<i32> = Vec::new();
    assert!(r.array_into(&head, &mut items).is_err(), "array_into read {items:?} from {array}");

    let nested = "<r><x>1</x></q>";
    let read_nested = || -> xmltext::XmlResult<()> {
        let mut r = XmlFieldReader::new(nested);
        first(&mut r, nested);
        let x = first(&mut r, nested);
        r.leaf_value::<i64>(&x)?;
        while r.next()? != XmlItem::Eof {}
        Ok(())
    };
    assert!(read_nested().is_err(), "read {nested} through to Eof");

    let two_roots = "<r/><r2/>";
    assert!(walk(two_roots).is_err(), "next() walked {two_roots} to Eof");
    let mut r = XmlFieldReader::new(two_roots);
    first(&mut r, two_roots);
    assert!(r.finish().is_err(), "finish accepted {two_roots}");

    for xml in [leaf, array, nested, two_roots] {
        assert!(xmltext::parse(xml).is_err(), "parse accepted {xml}");
    }

    let string = r#"<p:tag xsi:type="xsd:string">5</p:tag>"#;
    let mut r = XmlFieldReader::new(string);
    let head = first(&mut r, string);
    assert!(r.leaf_value::<i64>(&head).is_err(), "read {string} as an integer");
    let tree = xmltext::parse(string).unwrap();
    assert_eq!(tree.root().unwrap().leaf_value(), Some(&AtomicValue::Str("5".into())));
}

/// The typed XML decode took an element's local name after the last
/// colon, the tree path (`QName::parse`) takes it after the first. So an
/// `Envelope` named `soapenv:x:Envelope` matched on the typed path while
/// the tree path's envelope check (`SoapEnvelope::take_from`) rejects it.
#[test]
fn typed_xml_decode_takes_local_names_after_the_first_colon() {
    use soap::TypedEncoding;
    let enc = soap::XmlEncoding::default();
    let mut wire = Vec::new();
    let msg = bxsoap::VerifyResponse { ok: true, count: 3 };
    enc.encode_typed(&msg, None, &mut soap::TypedScratch::default(), &mut wire).unwrap();
    let xml = String::from_utf8(wire).unwrap().replace("soapenv:Envelope", "soapenv:x:Envelope");
    let mut doc = EncodingPolicy::decode(&enc, xml.as_bytes()).unwrap();
    assert!(SoapEnvelope::take_from(&mut doc).is_err(), "tree path accepted {xml}");
    typed_xml_rejects::<bxsoap::VerifyResponse>(&xml, "a two-colon Envelope name");
}
