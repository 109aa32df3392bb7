//! The benchmark's typed `Fetch` operation: a tiny request naming a pair
//! count, answered with that many (index, value) pairs as two packed
//! arrays. It is the download mirror of `Verify`: the bulk of the bytes
//! travel server → client, through the typed fast path on both sides
//! (no bXDM tree anywhere).
//!
//! The server answers from a dataset built at set-up time and shared by
//! `Arc`, so its handler copies nothing; the client decodes the reply
//! into a reusable [`FetchResult`].

use std::sync::Arc;

use bxsoap::{bxsa, soap, xbs, xmltext, LEAD_NS};

/// The dataset both sides agree on: `lead_dataset(pairs, seed)`.
#[derive(Debug, Default)]
pub struct Dataset {
    /// Position of each reading in the model grid.
    pub index: Vec<i32>,
    /// The readings.
    pub values: Vec<f64>,
}

impl Dataset {
    /// The seeded LEAD dataset of `pairs` pairs.
    pub fn new(pairs: usize, seed: u64) -> Dataset {
        let (index, values) = bxsoap::lead_dataset(pairs, seed);
        Dataset { index, values }
    }

    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when the dataset holds no pairs.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Are `index`/`values` bit-for-bit the first `pairs` pairs?
    pub fn matches_prefix(&self, pairs: usize, index: &[i32], values: &[f64]) -> bool {
        pairs <= self.len()
            && index == &self.index[..pairs]
            && values.len() == pairs
            && values
                .iter()
                .zip(&self.values[..pairs])
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

const LEAD_DECLS: [bxsa::TypedDecl; 1] = [(Some("d"), LEAD_NS)];

/// `d:Fetch` — ask for the first `count` pairs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FetchRequest {
    /// How many pairs to return.
    pub count: i64,
}

impl soap::ToBxsa for FetchRequest {
    fn element_name(&self) -> bxsa::TypedName {
        bxsa::TypedName::new(Some("d"), "Fetch")
    }

    fn bxsa_body_bound(&self) -> usize {
        use bxsa::estimate::{framed, plain_component_body_bound, plain_leaf_body_bound};
        let count = plain_leaf_body_bound("count", &[], xbs::TypeCode::I64, 0);
        plain_component_body_bound("Fetch", &LEAD_DECLS, 1, framed(count))
    }

    fn encode_bxsa(&self, w: &mut bxsa::FrameWriter) -> soap::SoapResult<()> {
        w.begin_component(self.element_name(), &LEAD_DECLS, 1, self.bxsa_body_bound())?;
        w.leaf(bxsa::TypedName::new(Some("d"), "count"), &[], self.count)?;
        Ok(w.end_component()?)
    }

    fn encode_xml(&self, w: &mut xmltext::XmlFieldWriter<'_>) {
        w.begin_component("d:Fetch", &LEAD_DECLS);
        w.leaf("d:count", &[], self.count);
        w.end_component("d:Fetch");
    }
}

impl soap::FromBxsa for FetchRequest {
    fn expected_local() -> &'static str {
        "Fetch"
    }

    fn decode_bxsa<'a>(
        &mut self,
        r: &mut bxsa::FieldReader<'a>,
        head: &bxsa::ElementHead<'a>,
    ) -> soap::SoapResult<()> {
        let mut count = None;
        for _ in 0..head.child_count {
            let f = r.open()?;
            match f.local {
                "count" => count = Some(r.read_value::<i64>(&f)?),
                _ => r.skip(&f)?,
            }
        }
        r.close(head)?;
        self.count = count.ok_or_else(|| missing("count"))?;
        Ok(())
    }

    fn decode_xml<'a>(
        &mut self,
        r: &mut xmltext::XmlFieldReader<'a>,
        head: &xmltext::XmlHead<'a>,
    ) -> soap::SoapResult<()> {
        let mut count = None;
        if !head.self_closing {
            loop {
                match r.next()? {
                    xmltext::XmlItem::Start(f) if f.local == "count" => {
                        count = Some(r.leaf_value::<i64>(&f)?)
                    }
                    xmltext::XmlItem::Start(f) => r.skip(&f)?,
                    xmltext::XmlItem::End(l) if l == head.local => break,
                    _ => return Err(unexpected("Fetch")),
                }
            }
        }
        self.count = count.ok_or_else(|| missing("count"))?;
        Ok(())
    }
}

/// The server's `FetchResponse`: the first `count` pairs of a shared
/// dataset, encoded straight from it.
#[derive(Debug, Default)]
pub struct FetchReply {
    /// The dataset the pairs come from.
    pub data: Arc<Dataset>,
    /// How many pairs to send.
    pub count: usize,
}

impl FetchReply {
    /// Answer `req` from `data`: a Protocol error when it asks for more
    /// pairs than the dataset holds.
    pub fn serve(
        data: &Arc<Dataset>,
        req: &FetchRequest,
        resp: &mut FetchReply,
    ) -> soap::SoapResult<()> {
        let count = usize::try_from(req.count)
            .ok()
            .filter(|&n| n <= data.len())
            .ok_or_else(|| {
                soap::SoapError::Protocol(format!("cannot fetch {} pairs", req.count))
            })?;
        if !Arc::ptr_eq(&resp.data, data) {
            resp.data = Arc::clone(data);
        }
        resp.count = count;
        Ok(())
    }
}

impl soap::ToBxsa for FetchReply {
    fn element_name(&self) -> bxsa::TypedName {
        bxsa::TypedName::new(None, "FetchResponse")
    }

    fn bxsa_body_bound(&self) -> usize {
        use bxsa::estimate::{framed, plain_array_body_bound, plain_component_body_bound};
        let index = plain_array_body_bound("index", &[], xbs::TypeCode::I32, self.count);
        let values = plain_array_body_bound("values", &[], xbs::TypeCode::F64, self.count);
        plain_component_body_bound("FetchResponse", &[], 2, framed(index) + framed(values))
    }

    fn encode_bxsa(&self, w: &mut bxsa::FrameWriter) -> soap::SoapResult<()> {
        w.begin_component(self.element_name(), &[], 2, self.bxsa_body_bound())?;
        w.array(
            bxsa::TypedName::new(None, "index"),
            &[],
            &self.data.index[..self.count],
        )?;
        w.array(
            bxsa::TypedName::new(None, "values"),
            &[],
            &self.data.values[..self.count],
        )?;
        Ok(w.end_component()?)
    }

    fn encode_xml(&self, w: &mut xmltext::XmlFieldWriter<'_>) {
        w.begin_component("FetchResponse", &[]);
        w.array("index", &[], &self.data.index[..self.count]);
        w.array("values", &[], &self.data.values[..self.count]);
        w.end_component("FetchResponse");
    }
}

/// The client's view of a `FetchResponse`: owned arrays, refilled in
/// place call after call.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FetchResult {
    /// The returned indices.
    pub index: Vec<i32>,
    /// The returned readings.
    pub values: Vec<f64>,
}

impl soap::FromBxsa for FetchResult {
    fn expected_local() -> &'static str {
        "FetchResponse"
    }

    fn decode_bxsa<'a>(
        &mut self,
        r: &mut bxsa::FieldReader<'a>,
        head: &bxsa::ElementHead<'a>,
    ) -> soap::SoapResult<()> {
        let (mut saw_index, mut saw_values) = (false, false);
        for _ in 0..head.child_count {
            let f = r.open()?;
            match f.local {
                "index" => {
                    r.read_array_into(&f, &mut self.index)?;
                    saw_index = true;
                }
                "values" => {
                    r.read_array_into(&f, &mut self.values)?;
                    saw_values = true;
                }
                _ => r.skip(&f)?,
            }
        }
        r.close(head)?;
        require(saw_index, saw_values)
    }

    fn decode_xml<'a>(
        &mut self,
        r: &mut xmltext::XmlFieldReader<'a>,
        head: &xmltext::XmlHead<'a>,
    ) -> soap::SoapResult<()> {
        let (mut saw_index, mut saw_values) = (false, false);
        if !head.self_closing {
            loop {
                match r.next()? {
                    xmltext::XmlItem::Start(f) if f.local == "index" => {
                        r.array_into(&f, &mut self.index)?;
                        saw_index = true;
                    }
                    xmltext::XmlItem::Start(f) if f.local == "values" => {
                        r.array_into(&f, &mut self.values)?;
                        saw_values = true;
                    }
                    xmltext::XmlItem::Start(f) => r.skip(&f)?,
                    xmltext::XmlItem::End(l) if l == head.local => break,
                    _ => return Err(unexpected("FetchResponse")),
                }
            }
        }
        require(saw_index, saw_values)
    }
}

fn require(saw_index: bool, saw_values: bool) -> soap::SoapResult<()> {
    match (saw_index, saw_values) {
        (true, true) => Ok(()),
        (false, _) => Err(missing("index")),
        (_, false) => Err(missing("values")),
    }
}

fn missing(field: &str) -> soap::SoapError {
    soap::SoapError::Protocol(format!("missing {field} field"))
}

fn unexpected(element: &str) -> soap::SoapError {
    soap::SoapError::Protocol(format!("unexpected content inside {element}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use soap::{TypedDecode, TypedEncoding, TypedScratch};

    #[test]
    fn fetch_reply_roundtrips_on_both_encodings() {
        let data = Arc::new(Dataset::new(50, 3));
        let mut reply = FetchReply::default();
        FetchReply::serve(&data, &FetchRequest { count: 20 }, &mut reply).unwrap();
        let mut scratch = TypedScratch::default();
        let mut wire = Vec::new();
        let mut got = FetchResult::default();

        let bxsa = soap::BxsaEncoding::default();
        bxsa.encode_typed(&reply, None, &mut scratch, &mut wire)
            .unwrap();
        assert_eq!(
            bxsa.decode_typed_reply(&wire, &mut got).unwrap(),
            TypedDecode::Matched
        );
        assert!(data.matches_prefix(20, &got.index, &got.values));

        let xml = soap::XmlEncoding::default();
        xml.encode_typed(&reply, None, &mut scratch, &mut wire)
            .unwrap();
        assert_eq!(
            xml.decode_typed_reply(&wire, &mut got).unwrap(),
            TypedDecode::Matched
        );
        assert!(data.matches_prefix(20, &got.index, &got.values));
        assert!(!data.matches_prefix(19, &got.index, &got.values));
    }

    #[test]
    fn fetch_rejects_oversized_requests() {
        let data = Arc::new(Dataset::new(5, 1));
        let mut reply = FetchReply::default();
        assert!(FetchReply::serve(&data, &FetchRequest { count: 6 }, &mut reply).is_err());
        assert!(FetchReply::serve(&data, &FetchRequest { count: -1 }, &mut reply).is_err());
    }
}
