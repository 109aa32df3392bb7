//! BXSA ↔ textual XML transcoding (paper §4.2).
//!
//! "A binary format that is transcodable to XML can be converted to
//! textual XML, and then back to binary XML without change" — and the
//! reverse. Both directions go through the shared bXDM model; type
//! information survives the textual leg via `xsi:type`/`bx:arrayType`
//! attributes, and floating-point values are canonicalized to their
//! shortest round-trip lexical form (the paper's stated exception: floats
//! are "converted to full precision regardless of the original input").

use bxdm::Document;
use xmltext::XmlWriteOptions;

use crate::decoder::decode;
use crate::encoder::{encode_with, EncodeOptions};
use crate::error::{BxsaError, BxsaResult};

/// Convert a BXSA document to textual XML (typed, schema-less).
pub fn bxsa_to_xml(bytes: &[u8]) -> BxsaResult<String> {
    let doc = decode(bytes)?;
    let Ok(xml) = xmltext::to_string_with(&doc, &XmlWriteOptions::default());
    Ok(xml)
}

/// Convert textual XML to a BXSA document.
pub fn xml_to_bxsa(xml: &str) -> BxsaResult<Vec<u8>> {
    let doc = xmltext::parse(xml).map_err(|e| BxsaError::Structure {
        what: format!("XML parse error during transcode: {e}"),
    })?;
    encode_with(&doc, &EncodeOptions::default())
}

/// Check the binary-side transcodability property for a document:
/// BXSA → XML → BXSA reproduces the original bytes.
pub fn verify_binary_fixpoint(doc: &Document) -> BxsaResult<bool> {
    let bytes = encode_with(doc, &EncodeOptions::default())?;
    let xml = bxsa_to_xml(&bytes)?;
    let back = xml_to_bxsa(&xml)?;
    Ok(back == bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bxdm::{ArrayValue, AtomicValue, Element};

    fn typed_doc() -> Document {
        Document::with_root(
            Element::component("d:set")
                .with_namespace("d", "http://example.org/data")
                .with_attr("run", "9")
                .with_child(Element::leaf("d:count", AtomicValue::I32(3)))
                .with_child(Element::leaf("d:mean", AtomicValue::F64(0.1 + 0.2)))
                .with_child(Element::array(
                    "d:values",
                    ArrayValue::F64(vec![1.5, -2.25, 3.0e-9]),
                ))
                .with_child(Element::array("d:index", ArrayValue::I32(vec![0, 1, 2]))),
        )
    }

    #[test]
    fn binary_xml_binary_is_identity() {
        assert!(verify_binary_fixpoint(&typed_doc()).unwrap());
    }

    #[test]
    fn xml_binary_xml_is_identity() {
        // Start from the textual side: XML → BXSA → XML must reproduce
        // the text (floats already canonical here).
        let xml = xmltext::to_string(&typed_doc()).unwrap();
        let bytes = xml_to_bxsa(&xml).unwrap();
        let xml2 = bxsa_to_xml(&bytes).unwrap();
        assert_eq!(xml2, xml);
    }

    #[test]
    fn float_precision_is_canonicalized_not_lost() {
        // "1.50" is not canonical; one trip through BXSA canonicalizes
        // the lexical form but preserves the value exactly.
        let xml = r#"<n xsi:type="xsd:double">1.50</n>"#;
        let bytes = xml_to_bxsa(xml).unwrap();
        let xml2 = bxsa_to_xml(&bytes).unwrap();
        assert_eq!(xml2, r#"<n xsi:type="xsd:double">1.5</n>"#);
        // And the canonical form is a fixed point.
        let bytes2 = xml_to_bxsa(&xml2).unwrap();
        assert_eq!(bytes2, bytes);
    }

    #[test]
    fn untyped_xml_roundtrips_as_text() {
        let xml = "<a><b>plain text</b><c k=\"v\"/></a>";
        let bytes = xml_to_bxsa(xml).unwrap();
        assert_eq!(bxsa_to_xml(&bytes).unwrap(), xml);
    }

    #[test]
    fn malformed_xml_reports_structure_error() {
        assert!(matches!(
            xml_to_bxsa("<a><b></a></b>"),
            Err(BxsaError::Structure { .. })
        ));
    }
}
