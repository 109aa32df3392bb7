//! Encoding policies (paper §5.2).
//!
//! "The encoding policy is an object that is able to serialize and
//! deserialize the bXDM model." Serialization runs as a visitor over the
//! tree (inside the `xmltext`/`bxsa` crates); deserialization is the
//! factory method producing a fresh bXDM document.

use bxdm::Document;

use crate::error::SoapResult;

/// A policy that can serialize and deserialize bXDM documents.
///
/// The engine is generic over this trait, so the concrete encoder is
/// chosen at compile time and its calls inline into the engine
/// (the paper: "Because the binding is at compile time, compiler
/// optimizations are not impacted, and inlining is still enabled").
///
/// The buffer-reusing `_into` forms are the *required* methods: every
/// policy must be able to serialize into — and deserialize into — storage
/// the caller owns, because that is the shape the engine's and servers'
/// steady-state (allocation-free) paths use. The allocating `encode`/
/// `decode` are conveniences with default implementations on top.
pub trait EncodingPolicy {
    /// MIME type announced on HTTP-like bindings.
    fn content_type(&self) -> &'static str;
    /// Short scheme name for logging/diagnostics ("xml", "bxsa").
    fn name(&self) -> &'static str;
    /// Serialize a document into a reusable buffer (replacing its
    /// contents, keeping its capacity).
    fn encode_into(&self, doc: &Document, out: &mut Vec<u8>) -> SoapResult<()>;
    /// Deserialize into a reusable document: contents are replaced, but
    /// node slots, strings, and array buffers from the previous message
    /// are refilled in place, so decoding a stream of similarly-shaped
    /// messages is allocation-free at steady state. On error the
    /// document holds unspecified but valid contents.
    fn decode_into(&self, bytes: &[u8], doc: &mut Document) -> SoapResult<()>;
    /// Serialize a document for a gather write: `out` (contents replaced,
    /// capacity kept) receives the encoded bytes except any the policy
    /// leaves in `doc`, and `parts` the slices to send, in order —
    /// pieces of `out` and bytes borrowed from `doc`. Returns how many
    /// leading slots of `parts` are filled; their concatenation is
    /// exactly what [`encode_into`](EncodingPolicy::encode_into) writes.
    /// `parts` needs at least one slot. Default: `encode_into`, sent as
    /// one part.
    fn encode_parts_into<'a>(
        &self,
        doc: &'a Document,
        out: &'a mut Vec<u8>,
        parts: &mut [&'a [u8]],
    ) -> SoapResult<usize> {
        self.encode_into(doc, out)?;
        parts[0] = out;
        Ok(1)
    }
    /// This policy as the BXSA policy, when it is one: a service reads
    /// BXSA requests for the registry's views in place
    /// ([`crate::ServiceRegistry::register_view`]) and answers them in
    /// these options. Default: `None`, so views never run.
    fn as_bxsa(&self) -> Option<&BxsaEncoding> {
        None
    }
    /// Serialize a document into fresh storage. Default: delegates to
    /// [`encode_into`](EncodingPolicy::encode_into).
    fn encode(&self, doc: &Document) -> SoapResult<Vec<u8>> {
        let mut out = Vec::new();
        self.encode_into(doc, &mut out)?;
        Ok(out)
    }
    /// Deserialize a fresh document. Default: delegates to
    /// [`decode_into`](EncodingPolicy::decode_into).
    fn decode(&self, bytes: &[u8]) -> SoapResult<Document> {
        let mut doc = Document::new();
        self.decode_into(bytes, &mut doc)?;
        Ok(doc)
    }
}

/// Textual XML 1.0 — SOAP's de-facto default wire format.
#[derive(Debug, Clone, Default)]
pub struct XmlEncoding {
    /// Writer options (typed `xsi:type` emission on by default).
    pub write_options: xmltext::XmlWriteOptions,
}

impl EncodingPolicy for XmlEncoding {
    fn content_type(&self) -> &'static str {
        "text/xml; charset=utf-8"
    }

    fn name(&self) -> &'static str {
        "xml"
    }

    fn encode_into(&self, doc: &Document, out: &mut Vec<u8>) -> SoapResult<()> {
        // Reuse the byte buffer's capacity as the writer's String. Clear
        // it *before* the UTF-8 conversion: validating an empty vector is
        // free, where validating the last message's bytes is an O(n) scan
        // (and non-UTF-8 residue would lose the capacity).
        let mut text = String::from_utf8(cleared(out)).expect("an empty vector is valid UTF-8");
        let Ok(()) = xmltext::write_into(doc, &self.write_options, &mut text);
        *out = text.into_bytes();
        Ok(())
    }

    fn decode_into(&self, bytes: &[u8], doc: &mut Document) -> SoapResult<()> {
        let text = std::str::from_utf8(bytes).map_err(|_| {
            crate::error::SoapError::Protocol("XML payload is not valid UTF-8".into())
        })?;
        Ok(xmltext::parse_into(text, doc)?)
    }
}

/// BXSA binary XML — the paper's high-performance encoding.
#[derive(Debug, Clone, Default)]
pub struct BxsaEncoding {
    /// Encoder options (byte order; little-endian default).
    pub options: bxsa::EncodeOptions,
}

impl BxsaEncoding {
    /// Encode in the machine's native byte order, enabling zero-copy
    /// array reads when both endpoints share an architecture.
    pub fn native_order() -> BxsaEncoding {
        BxsaEncoding {
            options: bxsa::EncodeOptions {
                byte_order: xbs::ByteOrder::native(),
                ..Default::default()
            },
        }
    }

    /// Enable per-frame CRC32C integrity checksums on everything this
    /// policy encodes (envelopes and streamed parts alike). Decoding is
    /// unaffected: checksums are verified whenever present, so a
    /// checksum-enabled endpoint interops with plain peers transparently.
    pub fn with_checksum(mut self) -> BxsaEncoding {
        self.options.checksum = true;
        self
    }
}

impl EncodingPolicy for BxsaEncoding {
    fn content_type(&self) -> &'static str {
        "application/bxsa"
    }

    fn name(&self) -> &'static str {
        "bxsa"
    }

    fn encode_into(&self, doc: &Document, out: &mut Vec<u8>) -> SoapResult<()> {
        Ok(bxsa::encode_into_with(doc, &self.options, out)?)
    }

    /// Large packed arrays stay in `doc` and go out by reference when the
    /// byte order is the machine's own and no checksum is asked for
    /// (see [`bxsa::encode_parts_into`]).
    fn encode_parts_into<'a>(
        &self,
        doc: &'a Document,
        out: &'a mut Vec<u8>,
        parts: &mut [&'a [u8]],
    ) -> SoapResult<usize> {
        Ok(bxsa::encode_parts_into(doc, &self.options, out, parts)?)
    }

    fn decode_into(&self, bytes: &[u8], doc: &mut Document) -> SoapResult<()> {
        Ok(bxsa::decode_into(bytes, doc)?)
    }

    fn as_bxsa(&self) -> Option<&BxsaEncoding> {
        Some(self)
    }
}

/// Take `out`'s buffer, emptied, capacity kept.
pub(crate) fn cleared(out: &mut Vec<u8>) -> Vec<u8> {
    let mut bytes = std::mem::take(out);
    bytes.clear();
    bytes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::SoapEnvelope;
    use bxdm::{ArrayValue, Element};

    fn sample_doc() -> Document {
        SoapEnvelope::with_body(
            Element::component("m:Op")
                .with_namespace("m", "http://example.org")
                .with_child(Element::array("m:v", ArrayValue::I32(vec![1, 2, 3]))),
        )
        .to_document()
    }

    /// The XML encoders reuse the caller's buffer whatever it holds — the
    /// previous message, or bytes that are not UTF-8: the same
    /// allocation, and the bytes of a fresh encode.
    #[test]
    fn xml_encoders_reuse_a_dirty_buffer() {
        use crate::streaming::StreamEncoding;
        let xml = XmlEncoding::default();
        let doc = sample_doc();
        let part = Element::array("m:v", ArrayValue::F64(vec![0.5; 40]));
        let mut fresh = Vec::new();
        xml.encode_into(&doc, &mut fresh).unwrap();
        let mut fresh_part = Vec::new();
        xml.encode_part_into(&part, &mut fresh_part).unwrap();
        for residue in [fresh.clone(), fresh_part.clone(), vec![0xff; 64]] {
            let mut buf = Vec::with_capacity(4 * (fresh.len() + fresh_part.len()));
            buf.extend_from_slice(&residue);
            let held = (buf.as_ptr(), buf.capacity());
            xml.encode_into(&doc, &mut buf).unwrap();
            assert_eq!(buf, fresh);
            assert_eq!((buf.as_ptr(), buf.capacity()), held);
            buf.extend_from_slice(&residue);
            xml.encode_part_into(&part, &mut buf).unwrap();
            assert_eq!(buf, fresh_part);
            assert_eq!((buf.as_ptr(), buf.capacity()), held);
        }
    }

    #[test]
    fn xml_roundtrip() {
        let enc = XmlEncoding::default();
        let bytes = enc.encode(&sample_doc()).unwrap();
        assert!(std::str::from_utf8(&bytes).unwrap().starts_with("<soapenv:Envelope"));
        assert_eq!(enc.decode(&bytes).unwrap(), sample_doc());
    }

    #[test]
    fn bxsa_roundtrip() {
        let enc = BxsaEncoding::default();
        let bytes = enc.encode(&sample_doc()).unwrap();
        assert_eq!(enc.decode(&bytes).unwrap(), sample_doc());
    }

    #[test]
    fn bxsa_is_smaller_for_numeric_payloads() {
        let doc = SoapEnvelope::with_body(
            Element::component("m:Data")
                .with_namespace("m", "http://example.org")
                .with_child(Element::array(
                    "m:values",
                    ArrayValue::F64((0..1000).map(|i| i as f64 * 0.123).collect()),
                )),
        )
        .to_document();
        let xml = XmlEncoding::default().encode(&doc).unwrap();
        let bin = BxsaEncoding::default().encode(&doc).unwrap();
        assert!(
            bin.len() * 2 < xml.len(),
            "bxsa {} should be far below xml {}",
            bin.len(),
            xml.len()
        );
    }

    #[test]
    fn encode_into_matches_encode_for_both_policies() {
        let doc = sample_doc();
        // Dirty, non-UTF-8 residue in the reused buffer must not leak
        // into the output of either policy.
        let mut buf = vec![0xff; 64];
        let xml = XmlEncoding::default();
        xml.encode_into(&doc, &mut buf).unwrap();
        assert_eq!(buf, xml.encode(&doc).unwrap());
        xml.encode_into(&doc, &mut buf).unwrap();
        assert_eq!(buf, xml.encode(&doc).unwrap());
        let bin = BxsaEncoding::default();
        bin.encode_into(&doc, &mut buf).unwrap();
        assert_eq!(buf, bin.encode(&doc).unwrap());
    }

    /// Filled part count, after checking the parts concatenate to
    /// exactly what `encode_into` writes.
    fn parts_of(enc: &impl EncodingPolicy, doc: &Document) -> usize {
        let mut flat = Vec::new();
        enc.encode_into(doc, &mut flat).unwrap();
        let mut head = vec![0xff; 8];
        let mut parts = [&[][..]; 5];
        let n = enc.encode_parts_into(doc, &mut head, &mut parts).unwrap();
        assert_eq!(parts[..n].concat(), flat, "{}", enc.name());
        n
    }

    #[test]
    fn only_native_unchecksummed_bxsa_gathers() {
        let doc = SoapEnvelope::with_body(
            Element::component("m:Data")
                .with_namespace("m", "http://example.org")
                .with_child(Element::array(
                    "m:values",
                    ArrayValue::F64((0..2000).map(|i| i as f64 * 0.25).collect()),
                ))
                .with_child(Element::array("m:tail", ArrayValue::I32(vec![1, 2, 3]))),
        )
        .to_document();
        assert_eq!(parts_of(&XmlEncoding::default(), &doc), 1);
        assert_eq!(parts_of(&BxsaEncoding::native_order(), &doc), 3);
        assert_eq!(
            parts_of(&BxsaEncoding::native_order().with_checksum(), &doc),
            1
        );
        let foreign = match xbs::ByteOrder::native() {
            xbs::ByteOrder::Little => xbs::ByteOrder::Big,
            xbs::ByteOrder::Big => xbs::ByteOrder::Little,
        };
        let foreign = BxsaEncoding {
            options: bxsa::EncodeOptions {
                byte_order: foreign,
                ..Default::default()
            },
        };
        assert_eq!(parts_of(&foreign, &doc), 1);
        assert_eq!(parts_of(&BxsaEncoding::native_order(), &sample_doc()), 1);
    }

    #[test]
    fn decode_into_matches_decode_for_both_policies() {
        let doc = sample_doc();
        // The reused document starts dirty (a different prior message);
        // decode_into must fully replace it for both policies.
        let stale = SoapEnvelope::with_body(
            Element::component("m:Other")
                .with_namespace("m", "http://example.org")
                .with_child(Element::array("m:w", ArrayValue::F64(vec![9.9; 64]))),
        )
        .to_document();
        let xml = XmlEncoding::default();
        let bytes = xml.encode(&doc).unwrap();
        let mut reused = stale.clone();
        xml.decode_into(&bytes, &mut reused).unwrap();
        assert_eq!(reused, xml.decode(&bytes).unwrap());
        xml.decode_into(&bytes, &mut reused).unwrap();
        assert_eq!(reused, doc);
        let bin = BxsaEncoding::default();
        let bytes = bin.encode(&doc).unwrap();
        let mut reused = stale;
        bin.decode_into(&bytes, &mut reused).unwrap();
        assert_eq!(reused, bin.decode(&bytes).unwrap());
        assert_eq!(reused, doc);
    }

    #[test]
    fn content_types_differ() {
        assert_ne!(
            XmlEncoding::default().content_type(),
            BxsaEncoding::default().content_type()
        );
    }

    #[test]
    fn xml_rejects_non_utf8() {
        let enc = XmlEncoding::default();
        assert!(enc.decode(&[0xff, 0xfe, 0x00]).is_err());
    }

    #[test]
    fn cross_decoding_fails_cleanly() {
        // Feeding XML bytes to the BXSA decoder (and vice versa) must be
        // an error, not a panic.
        let xml_bytes = XmlEncoding::default().encode(&sample_doc()).unwrap();
        assert!(BxsaEncoding::default().decode(&xml_bytes).is_err());
        let bin_bytes = BxsaEncoding::default().encode(&sample_doc()).unwrap();
        assert!(XmlEncoding::default().decode(&bin_bytes).is_err());
    }
}
