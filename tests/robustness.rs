//! Adversarial-input robustness: every decoder in the stack must reject
//! malformed input with an error — never a panic, hang, or runaway
//! allocation. These are the property-test analogue of fuzzing.

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes into the BXSA decoder.
    #[test]
    fn bxsa_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = bxsa::decode(&bytes);
    }

    /// Arbitrary bytes into the BXSA pull reader, pulled to exhaustion.
    #[test]
    fn bxsa_pull_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        if let Ok(mut reader) = bxsa::PullReader::new(&bytes) {
            for _ in 0..2_000 {
                match reader.next_event() {
                    Ok(Some(_)) => {}
                    _ => break,
                }
            }
        }
    }

    /// Arbitrary bytes into the netCDF-3 parser.
    #[test]
    fn netcdf_parse_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = netcdf3::NcFile::from_bytes(&bytes);
    }

    /// netCDF parsing with a valid magic but arbitrary tail.
    #[test]
    fn netcdf_magic_prefix_never_panics(tail in proptest::collection::vec(any::<u8>(), 0..256)) {
        let mut bytes = b"CDF\x01".to_vec();
        bytes.extend_from_slice(&tail);
        let _ = netcdf3::NcFile::from_bytes(&bytes);
    }

    /// Arbitrary text into the XML parser.
    #[test]
    fn xml_parse_never_panics(text in "\\PC{0,300}") {
        let _ = xmltext::parse(&text);
    }

    /// Markup-shaped text into the XML parser (higher hit rate on the
    /// interesting code paths than fully random text).
    #[test]
    fn xml_markupish_never_panics(parts in proptest::collection::vec(
        prop_oneof![
            Just("<a>".to_owned()),
            Just("</a>".to_owned()),
            Just("<a b=\"c\">".to_owned()),
            Just("<a/>".to_owned()),
            Just("&amp;".to_owned()),
            Just("&#x41;".to_owned()),
            Just("<!--x-->".to_owned()),
            Just("<![CDATA[y]]>".to_owned()),
            Just("<?pi d?>".to_owned()),
            Just("text".to_owned()),
            Just("<n xsi:type=\"xsd:int\">7</n>".to_owned()),
            Just("<v bx:arrayType=\"xsd:double\"><i>1</i></v>".to_owned()),
        ], 0..12)) {
        let _ = xmltext::parse(&parts.concat());
    }

    /// Arbitrary bytes as VLS input.
    #[test]
    fn vls_read_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..16)) {
        let _ = xbs::vls::read_vls(&bytes, 0);
        let _ = xbs::vls::read_vls_padded(&bytes, 0);
    }

    /// Corrupting single bytes of a valid BXSA document must error or
    /// decode to *something*, never panic. (Bit-flip robustness.)
    #[test]
    fn bxsa_bitflip_never_panics(pos in 0usize..1000, flip in 1u8..=255) {
        let (index, values) = bxsoap::lead_dataset(20, 3);
        let doc = bxsoap::verify_request_envelope(&index, &values).to_document();
        let mut bytes = bxsa::encode(&doc).unwrap();
        let at = pos % bytes.len();
        bytes[at] ^= flip;
        let _ = bxsa::decode(&bytes);
    }

    /// Same for netCDF files.
    #[test]
    fn netcdf_bitflip_never_panics(pos in 0usize..1000, flip in 1u8..=255) {
        let (index, values) = bxsoap::lead_dataset(20, 3);
        let mut nc = netcdf3::NcFile::new();
        let d = nc.add_dim("n", index.len());
        nc.add_var("index", &[d], netcdf3::NcValue::Int(index)).unwrap();
        nc.add_var("values", &[d], netcdf3::NcValue::Double(values)).unwrap();
        let mut bytes = nc.to_bytes().unwrap();
        let at = pos % bytes.len();
        bytes[at] ^= flip;
        let _ = netcdf3::NcFile::from_bytes(&bytes);
    }

    /// SOAP services must turn arbitrary request bytes into fault
    /// envelopes (the server path never panics).
    #[test]
    fn soap_service_handles_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        use std::sync::Arc;
        let mut registry = soap::ServiceRegistry::new();
        bxsoap::register_verify(&mut registry);
        let service = soap::SoapService::new(soap::BxsaEncoding::default(), Arc::new(registry));
        let mut reply = Vec::new();
        let outcome = service.handle(&mut soap::DecodeScratch::default(), &bytes, &mut reply);
        prop_assert!(outcome.is_fault);
        prop_assert!(!reply.is_empty());
    }
}

/// A declared-size attack: a tiny buffer claiming a huge frame must be
/// rejected quickly without allocation.
#[test]
fn bxsa_huge_declared_sizes_rejected() {
    // Document frame prefix + padded VLS claiming ~2^35 bytes.
    let mut bytes = vec![0x01u8];
    bytes.extend_from_slice(&[0xff, 0xff, 0xff, 0xff, 0x0f]);
    bytes.push(0x01); // child count
    assert!(bxsa::decode(&bytes).is_err());
}

/// Deep nesting must hit the frame core's depth limit, not the stack,
/// and the tree decoder and the pull reader must draw the line at the
/// same depth: `MAX_DEPTH` nested frames pass, one more is rejected.
#[test]
fn bxsa_deep_nesting_bounded() {
    let nested = |levels: usize| {
        let mut e = bxdm::Element::component("x");
        for _ in 1..levels {
            e = bxdm::Element::component("w").with_child(e);
        }
        bxsa::encode(&bxdm::Document::with_root(e)).unwrap()
    };
    let pull = |bytes: &[u8]| -> bxsa::BxsaResult<usize> {
        let mut r = bxsa::PullReader::new(bytes)?;
        let mut events = 0;
        while r.next_event()?.is_some() {
            events += 1;
        }
        Ok(events)
    };
    let deepest = nested(bxsa::MAX_DEPTH);
    assert!(bxsa::decode(&deepest).is_ok());
    assert_eq!(pull(&deepest).unwrap(), 2 * bxsa::MAX_DEPTH);

    let too_deep = nested(bxsa::MAX_DEPTH + 1);
    assert!(matches!(
        bxsa::decode(&too_deep),
        Err(bxsa::BxsaError::Structure { .. })
    ));
    assert!(matches!(
        pull(&too_deep),
        Err(bxsa::BxsaError::Structure { .. })
    ));
    // Far past the limit: still a typed error, never a stack overflow.
    assert!(bxsa::decode(&nested(4 * bxsa::MAX_DEPTH)).is_err());
}
