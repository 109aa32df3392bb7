//! # bxsoap — a generic SOAP framework over binary XML
//!
//! Umbrella crate re-exporting the whole stack, bottom to top:
//!
//! | layer | crate | paper section |
//! |-------|-------|---------------|
//! | primitive binary serializer | [`xbs`] | §4 (XBS) |
//! | typed data model | [`bxdm`] | §3 (bXDM) |
//! | textual XML 1.0 codec | [`xmltext`] | §2 (baseline encoding) |
//! | binary XML codec | [`bxsa`] | §4 (BXSA) |
//! | netCDF-3 substrate | [`netcdf3`] | §6 (separated scheme) |
//! | network/disk/auth simulator | [`netsim`] | §6 (testbeds) |
//! | real TCP + HTTP transports | [`transport`] | §5.3 (bindings) |
//! | simulated GridFTP | [`gridftp`] | §6 (separated scheme) |
//! | generic SOAP engine | [`soap`] | §5 |
//! | WS-* upper stack | [`wsstack`] | §5.1, Figure 3 |
//!
//! See `examples/quickstart.rs` for the five-minute tour and DESIGN.md for
//! the experiment map.

use std::borrow::Cow;

pub use bxdm;
pub use bxsa;
pub use gridftp;
pub use netcdf3;
pub use netsim;
pub use soap;
pub use transport;
pub use wsstack;
pub use xbs;
pub use xmltext;

/// Generate the paper's LEAD-derived workload: `model_size` pairs of a
/// 4-byte integer index and an 8-byte double value (atmospheric readings
/// over time/y/x/height — §6: "the data set consists of two equal-size
/// arrays").
///
/// Values are quantized to realistic instrument precision (hundredths),
/// which also keeps their ASCII lexical forms near the lengths the
/// paper's data produced — that matters for Table 1.
pub fn lead_dataset(model_size: usize, seed: u64) -> (Vec<i32>, Vec<f64>) {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let index: Vec<i32> = (0..model_size as i32).collect();
    let values: Vec<f64> = (0..model_size)
        .map(|_| {
            // Atmospheric temperature-like values in Kelvin.
            let v: f64 = rng.random_range(180.0..330.0);
            (v * 100.0).round() / 100.0
        })
        .collect();
    (index, values)
}

/// Build the unified-solution request envelope: the whole dataset inside
/// the SOAP body as two array elements (§6 "Unified solution").
pub fn verify_request_envelope(index: &[i32], values: &[f64]) -> soap::SoapEnvelope {
    use bxdm::{ArrayValue, Element};
    soap::SoapEnvelope::with_body(
        Element::component("d:Verify")
            .with_namespace("d", "http://bxsoap.example.org/lead")
            .with_child(Element::array("d:index", ArrayValue::I32(index.to_vec())))
            .with_child(Element::array(
                "d:values",
                ArrayValue::F64(values.to_vec()),
            )),
    )
}

/// The verification the paper's server performs on each value: every
/// index is in range and every reading is physically plausible.
///
/// One fused pass with no early exit: the per-pair test folds with `&`
/// instead of short-circuiting, which lets the compiler vectorize it.
/// The range test is false for NaN and rejects ±inf.
pub fn verify_dataset(index: &[i32], values: &[f64]) -> bool {
    index.len() == values.len()
        && index
            .iter()
            .zip(values)
            .enumerate()
            .fold(true, |ok, (i, (&x, v))| {
                ok & (x == i as i32) & (100.0..400.0).contains(v)
            })
}

/// Register the LEAD `Verify` operation on a service registry. Shared by
/// the examples, the integration tests and the benchmark harnesses.
///
/// Two handlers answer it alike. On a BXSA service, a request in
/// `Verify`'s own shape is read in place as a [`VerifyView`], its arrays
/// borrowed from the bytes the transport received. The tree handler
/// serves XML and everything the view does not read.
pub fn register_verify(registry: &mut soap::ServiceRegistry) {
    use bxdm::{AtomicValue, Element};
    registry.register_view::<VerifyView<'static>, VerifyResponse, _>("Verify", |req, resp| {
        resp.ok = verify_dataset(&req.index, &req.values);
        resp.count = req.values.len() as i64;
        Ok(())
    });
    registry.register("Verify", |req| {
        let body = req
            .body_element()
            .expect("dispatch guarantees a body element");
        let index = body
            .find_child("index")
            .and_then(|e| e.as_i32_array())
            .ok_or_else(|| soap::SoapError::Protocol("missing index array".into()))?;
        let values = body
            .find_child("values")
            .and_then(|e| e.as_f64_array())
            .ok_or_else(|| soap::SoapError::Protocol("missing values array".into()))?;
        let ok = verify_dataset(index, values);
        Ok(soap::SoapEnvelope::with_body(
            Element::component("VerifyResponse")
                .with_child(Element::leaf("ok", AtomicValue::Bool(ok)))
                .with_child(Element::leaf(
                    "count",
                    AtomicValue::I64(values.len() as i64),
                )),
        ))
    });
}

/// The LEAD dataset namespace used by the `Verify` operation.
pub const LEAD_NS: &str = "http://bxsoap.example.org/lead";
const LEAD_DECLS: [bxsa::TypedDecl; 1] = [(Some("d"), LEAD_NS)];

/// The unified-solution request as a typed struct: the whole dataset as
/// two packed arrays, ready for the typed fast path
/// ([`soap::ToBxsa`]/[`soap::FromBxsa`]). Encodes byte-for-byte
/// identically to [`verify_request_envelope`] on both wire encodings.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VerifyRequest {
    /// Position of each reading in the model grid.
    pub index: Vec<i32>,
    /// The readings themselves.
    pub values: Vec<f64>,
}

/// The `Verify` request read in place (see [`register_verify`]): each
/// array is borrowed from the request bytes when their byte order is the
/// machine's and the payload is aligned, and copied otherwise.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyView<'a> {
    /// Position of each reading in the model grid.
    pub index: Cow<'a, [i32]>,
    /// The readings themselves.
    pub values: Cow<'a, [f64]>,
}

impl soap::BxsaView for VerifyView<'static> {
    type View<'a> = VerifyView<'a>;

    fn expected_local() -> &'static str {
        "Verify"
    }

    /// The first `index` and `values` children, as the tree handler's
    /// `find_child` takes them.
    fn decode_view<'a>(
        r: &mut bxsa::FieldReader<'a>,
        head: &bxsa::ElementHead<'a>,
    ) -> soap::SoapResult<VerifyView<'a>> {
        let (mut index, mut values) = (None, None);
        for _ in 0..head.child_count {
            let f = r.open()?;
            match f.local {
                "index" if index.is_none() => index = Some(r.read_array_view(&f)?),
                "values" if values.is_none() => values = Some(r.read_array_view(&f)?),
                _ => r.skip(&f)?,
            }
        }
        r.close(head)?;
        require_arrays(index.is_some(), values.is_some())?;
        Ok(VerifyView {
            index: index.unwrap_or_default(),
            values: values.unwrap_or_default(),
        })
    }
}

/// The `Verify` reply as a typed struct; mirrors the tree response
/// [`register_verify`] produces.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VerifyResponse {
    /// Every reading passed verification.
    pub ok: bool,
    /// How many readings were checked.
    pub count: i64,
}

impl soap::ToBxsa for VerifyRequest {
    fn element_name(&self) -> bxsa::TypedName {
        bxsa::TypedName::new(Some("d"), "Verify")
    }

    fn bxsa_body_bound(&self) -> usize {
        use bxsa::estimate::{framed, plain_array_body_bound, plain_component_body_bound};
        let index = plain_array_body_bound("index", &[], xbs::TypeCode::I32, self.index.len());
        let values = plain_array_body_bound("values", &[], xbs::TypeCode::F64, self.values.len());
        plain_component_body_bound("Verify", &LEAD_DECLS, 2, framed(index) + framed(values))
    }

    fn encode_bxsa(&self, w: &mut bxsa::FrameWriter) -> soap::SoapResult<()> {
        w.begin_component(self.element_name(), &LEAD_DECLS, 2, self.bxsa_body_bound())?;
        w.array(bxsa::TypedName::new(Some("d"), "index"), &[], &self.index)?;
        w.array(bxsa::TypedName::new(Some("d"), "values"), &[], &self.values)?;
        Ok(w.end_component()?)
    }

    fn encode_xml(&self, w: &mut xmltext::XmlFieldWriter<'_>) {
        w.begin_component("d:Verify", &LEAD_DECLS);
        w.array("d:index", &[], &self.index);
        w.array("d:values", &[], &self.values);
        w.end_component("d:Verify");
    }
}

/// Both encodings read the first `index` and `values` children, as the
/// tree handler's `find_child` takes them, and check the rest as they
/// skip it. A first child that is not an array of the right type counts
/// as missing, as the tree handler's `as_*_array` finds nothing there.
impl soap::FromBxsa for VerifyRequest {
    fn expected_local() -> &'static str {
        "Verify"
    }

    fn decode_bxsa<'a>(
        &mut self,
        r: &mut bxsa::FieldReader<'a>,
        head: &bxsa::ElementHead<'a>,
    ) -> soap::SoapResult<()> {
        let (mut index, mut values) = (None, None);
        self.index.clear();
        self.values.clear();
        for _ in 0..head.child_count {
            let f = r.open()?;
            match f.local {
                "index" if index.is_none() => {
                    index = Some(first_array_bxsa(r, &f, &mut self.index)?)
                }
                "values" if values.is_none() => {
                    values = Some(first_array_bxsa(r, &f, &mut self.values)?)
                }
                _ => r.skip(&f)?,
            }
        }
        r.close(head)?;
        require_arrays(index == Some(true), values == Some(true))
    }

    fn decode_xml<'a>(
        &mut self,
        r: &mut xmltext::XmlFieldReader<'a>,
        head: &xmltext::XmlHead<'a>,
    ) -> soap::SoapResult<()> {
        let (mut index, mut values) = (None, None);
        self.index.clear();
        self.values.clear();
        if !head.self_closing {
            loop {
                match r.next()? {
                    xmltext::XmlItem::Start(f) if f.local == "index" && index.is_none() => {
                        index = Some(first_array_xml(r, &f, &mut self.index)?)
                    }
                    xmltext::XmlItem::Start(f) if f.local == "values" && values.is_none() => {
                        values = Some(first_array_xml(r, &f, &mut self.values)?)
                    }
                    xmltext::XmlItem::Start(f) => r.skip(&f)?,
                    xmltext::XmlItem::End(l) if l == head.local => break,
                    _ => {
                        return Err(soap::SoapError::Protocol(
                            "unexpected content inside Verify".into(),
                        ))
                    }
                }
            }
        }
        require_arrays(index == Some(true), values == Some(true))
    }
}

/// Read the opened `head` into `out` when it is an array of `T`, and read
/// past it otherwise; returns whether it was read.
fn first_array_bxsa<'a, T: xbs::Primitive>(
    r: &mut bxsa::FieldReader<'a>,
    head: &bxsa::ElementHead<'a>,
    out: &mut Vec<T>,
) -> soap::SoapResult<bool> {
    let read = r.is_array_of::<T>(head);
    if read {
        r.read_array_into(head, out)?;
    } else {
        r.skip(head)?;
    }
    Ok(read)
}

/// [`first_array_bxsa`] on the XML wire.
fn first_array_xml<'a, T: xmltext::TypedText>(
    r: &mut xmltext::XmlFieldReader<'a>,
    head: &xmltext::XmlHead<'a>,
    out: &mut Vec<T>,
) -> soap::SoapResult<bool> {
    let read = head.is_array_of::<T>();
    if read {
        r.array_into(head, out)?;
    } else {
        r.skip(head)?;
    }
    Ok(read)
}

/// Both dataset arrays are required — same contract the tree handler
/// enforces.
fn require_arrays(saw_index: bool, saw_values: bool) -> soap::SoapResult<()> {
    match (saw_index, saw_values) {
        (true, true) => Ok(()),
        (false, _) => Err(soap::SoapError::Protocol("missing index array".into())),
        (_, false) => Err(soap::SoapError::Protocol("missing values array".into())),
    }
}

impl soap::ToBxsa for VerifyResponse {
    fn element_name(&self) -> bxsa::TypedName {
        bxsa::TypedName::new(None, "VerifyResponse")
    }

    fn bxsa_body_bound(&self) -> usize {
        use bxsa::estimate::{framed, plain_component_body_bound, plain_leaf_body_bound};
        let ok = plain_leaf_body_bound("ok", &[], xbs::TypeCode::Bool, 0);
        let count = plain_leaf_body_bound("count", &[], xbs::TypeCode::I64, 0);
        plain_component_body_bound("VerifyResponse", &[], 2, framed(ok) + framed(count))
    }

    fn encode_bxsa(&self, w: &mut bxsa::FrameWriter) -> soap::SoapResult<()> {
        w.begin_component(self.element_name(), &[], 2, self.bxsa_body_bound())?;
        w.leaf_bool(bxsa::TypedName::new(None, "ok"), &[], self.ok)?;
        w.leaf(bxsa::TypedName::new(None, "count"), &[], self.count)?;
        Ok(w.end_component()?)
    }

    fn encode_xml(&self, w: &mut xmltext::XmlFieldWriter<'_>) {
        w.begin_component("VerifyResponse", &[]);
        w.leaf_bool("ok", &[], self.ok);
        w.leaf("count", &[], self.count);
        w.end_component("VerifyResponse");
    }
}

impl soap::FromBxsa for VerifyResponse {
    fn expected_local() -> &'static str {
        "VerifyResponse"
    }

    fn decode_bxsa<'a>(
        &mut self,
        r: &mut bxsa::FieldReader<'a>,
        head: &bxsa::ElementHead<'a>,
    ) -> soap::SoapResult<()> {
        let (mut ok, mut count) = (None, None);
        for _ in 0..head.child_count {
            let f = r.open()?;
            match f.local {
                "ok" => ok = Some(r.read_bool(&f)?),
                "count" => count = Some(r.read_value::<i64>(&f)?),
                _ => r.skip(&f)?,
            }
        }
        r.close(head)?;
        self.ok = ok.ok_or_else(|| soap::SoapError::Protocol("missing ok field".into()))?;
        self.count = count.ok_or_else(|| soap::SoapError::Protocol("missing count field".into()))?;
        Ok(())
    }

    fn decode_xml<'a>(
        &mut self,
        r: &mut xmltext::XmlFieldReader<'a>,
        head: &xmltext::XmlHead<'a>,
    ) -> soap::SoapResult<()> {
        let (mut ok, mut count) = (None, None);
        if !head.self_closing {
            loop {
                match r.next()? {
                    xmltext::XmlItem::Start(f) if f.local == "ok" => {
                        ok = Some(r.leaf_bool(&f)?)
                    }
                    xmltext::XmlItem::Start(f) if f.local == "count" => {
                        count = Some(r.leaf_value::<i64>(&f)?)
                    }
                    xmltext::XmlItem::Start(f) => r.skip(&f)?,
                    xmltext::XmlItem::End(l) if l == head.local => break,
                    _ => {
                        return Err(soap::SoapError::Protocol(
                            "unexpected content inside VerifyResponse".into(),
                        ))
                    }
                }
            }
        }
        self.ok = ok.ok_or_else(|| soap::SoapError::Protocol("missing ok field".into()))?;
        self.count = count.ok_or_else(|| soap::SoapError::Protocol("missing count field".into()))?;
        Ok(())
    }
}

/// Register the typed fast path for `Verify` on a service: same
/// semantics as [`register_verify`], no element tree either direction.
pub fn register_verify_typed<E>(service: &mut soap::SoapService<E>)
where
    E: soap::TypedEncoding + Clone + Send + Sync + 'static,
{
    service.register_typed::<VerifyRequest, VerifyResponse, _>("Verify", |req, resp| {
        resp.ok = verify_dataset(&req.index, &req.values);
        resp.count = req.values.len() as i64;
        Ok(())
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_is_deterministic_and_valid() {
        let (i1, v1) = lead_dataset(100, 7);
        let (i2, v2) = lead_dataset(100, 7);
        assert_eq!(i1, i2);
        assert_eq!(v1, v2);
        assert!(verify_dataset(&i1, &v1));
        let (i3, _) = lead_dataset(100, 8);
        assert_eq!(i1, i3); // indexes are deterministic regardless of seed
    }

    #[test]
    fn verify_rejects_bad_data() {
        let (index, mut values) = lead_dataset(10, 1);
        values[3] = f64::NAN;
        assert!(!verify_dataset(&index, &values));
        let (index, values) = lead_dataset(10, 1);
        assert!(!verify_dataset(&index[..9], &values));
    }

    /// The short-circuiting form the fused `verify_dataset` replaced,
    /// kept as its oracle.
    fn verify_dataset_reference(index: &[i32], values: &[f64]) -> bool {
        index.len() == values.len()
            && index.iter().enumerate().all(|(i, &x)| x == i as i32)
            && values
                .iter()
                .all(|v| v.is_finite() && (100.0..400.0).contains(v))
    }

    /// Readings at and around the edges of the plausible range.
    const CORNERS: [f64; 10] = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.0,
        100.0,
        400.0,
        99.99,
        399.99,
        f64::MIN_POSITIVE,
        250.0,
    ];

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(1024))]

        /// The fused pass answers exactly as the short-circuiting form on
        /// valid datasets with corner readings planted, a wrong index at
        /// the first or last position, and a length mismatch.
        #[test]
        fn fused_verify_matches_the_short_circuit_form(
            len in 0usize..24,
            planted in proptest::collection::vec((0usize..24, 0usize..CORNERS.len()), 0..3),
            bad_index in 0usize..3,
            mismatch in 0usize..3,
        ) {
            let (mut index, mut values) = lead_dataset(len, len as u64);
            for (at, corner) in planted {
                if at < len {
                    values[at] = CORNERS[corner];
                }
            }
            match bad_index {
                1 if len > 0 => index[0] = 1,
                2 if len > 0 => index[len - 1] = -1,
                _ => {}
            }
            match mismatch {
                1 => index.push(len as i32),
                2 => values.push(250.0),
                _ => {}
            }
            proptest::prop_assert_eq!(
                verify_dataset(&index, &values),
                verify_dataset_reference(&index, &values)
            );
        }
    }

    #[test]
    fn fused_verify_decides_each_corner_alone() {
        for corner in CORNERS {
            let (index, mut values) = lead_dataset(5, 9);
            values[4] = corner;
            assert_eq!(
                verify_dataset(&index, &values),
                verify_dataset_reference(&index, &values),
                "reading {corner:?}"
            );
        }
        assert!(verify_dataset(&[0], &[100.0]), "100.0 is in range");
        assert!(!verify_dataset(&[0], &[400.0]), "400.0 is out of range");
        assert!(!verify_dataset(&[0], &[-0.0]));
    }

    #[test]
    fn verify_operation_dispatches() {
        let (index, values) = lead_dataset(50, 3);
        let mut registry = soap::ServiceRegistry::new();
        register_verify(&mut registry);
        let resp = registry.dispatch(&verify_request_envelope(&index, &values));
        assert!(!resp.is_fault());
        assert_eq!(
            resp.body_element().unwrap().child_value("ok"),
            Some(&bxdm::AtomicValue::Bool(true))
        );
    }

    /// The tree path lends a request's entries out of the reused decode
    /// document and puts them back: after a 100k-pair Verify, the same
    /// scratch must serve every other request shape correctly — a
    /// differently shaped Verify, an unknown operation, a
    /// `mustUnderstand` fault and an expired deadline — and the bulk
    /// request again after each.
    #[test]
    fn scratch_reused_after_a_bulk_verify_serves_every_request_shape() {
        use bxdm::{AtomicValue, Element};
        use soap::{
            BxsaEncoding, DeadlineHeader, DecodeScratch, EncodingPolicy, FaultCode, SoapEnvelope,
            SoapService,
        };
        use std::sync::Arc;

        let enc = BxsaEncoding::default();
        let mut registry = soap::ServiceRegistry::new();
        register_verify(&mut registry);
        let service = SoapService::new(enc.clone(), Arc::new(registry));
        let mut scratch = DecodeScratch::default();
        let mut out = Vec::new();
        let wire = |env: SoapEnvelope| enc.encode(&env.into_document()).unwrap();
        let reply = |out: &[u8]| SoapEnvelope::from_document(&enc.decode(out).unwrap()).unwrap();
        let verified = |env: &SoapEnvelope| {
            let body = env.body_element().expect("reply body");
            match (body.child_value("ok"), body.child_value("count")) {
                (Some(AtomicValue::Bool(ok)), Some(AtomicValue::I64(n))) => (*ok, *n),
                other => panic!("not a VerifyResponse: {other:?}"),
            }
        };

        let (index, values) = lead_dataset(100_000, 5);
        let bulk = wire(verify_request_envelope(&index, &values));
        let (small_index, mut small_values) = lead_dataset(10, 6);
        small_values[9] = f64::NAN;
        let small = wire(
            verify_request_envelope(&small_index, &small_values).with_header(
                Element::leaf("d:Note", AtomicValue::Str("reshaped".into()))
                    .with_namespace("d", LEAD_NS),
            ),
        );
        let unknown = wire(SoapEnvelope::with_body(
            Element::component("d:Nope").with_namespace("d", LEAD_NS),
        ));
        let mystery = wire(
            verify_request_envelope(
                &small_index,
                &small_index.iter().map(|_| 200.0).collect::<Vec<_>>(),
            )
            .with_header(
                Element::component("d:Mystery")
                    .with_namespace("d", LEAD_NS)
                    .with_attr("soapenv:mustUnderstand", "1"),
            ),
        );
        let mut expired_env = verify_request_envelope(&small_index, &small_values);
        DeadlineHeader::new(0, 8).stamp(&mut expired_env);
        let expired = wire(expired_env);

        let serve_bulk = |scratch: &mut DecodeScratch, out: &mut Vec<u8>| {
            assert!(!service.handle(scratch, &bulk, out).is_fault);
            assert_eq!(verified(&reply(out)), (true, 100_000));
        };
        serve_bulk(&mut scratch, &mut out);

        assert!(!service.handle(&mut scratch, &small, &mut out).is_fault);
        assert_eq!(verified(&reply(&out)), (false, 10));
        serve_bulk(&mut scratch, &mut out);

        assert!(service.handle(&mut scratch, &unknown, &mut out).is_fault);
        let fault = reply(&out).as_fault().expect("unknown operation faults");
        assert_eq!(fault.code, FaultCode::Client);
        assert!(fault.string.contains("Nope"), "{}", fault.string);
        serve_bulk(&mut scratch, &mut out);

        assert!(service.handle(&mut scratch, &mystery, &mut out).is_fault);
        let fault = reply(&out).as_fault().expect("mustUnderstand faults");
        assert_eq!(fault.code, FaultCode::MustUnderstand);
        serve_bulk(&mut scratch, &mut out);

        let outcome = service.handle(&mut scratch, &expired, &mut out);
        assert!(outcome.is_fault);
        assert_eq!(outcome.retry_after, Some(soap::EXPIRED_RETRY_AFTER));
        let fault = reply(&out).as_fault().expect("expired deadline faults");
        assert_eq!(fault.code, FaultCode::Server);
        serve_bulk(&mut scratch, &mut out);
    }

    #[test]
    fn typed_verify_request_matches_the_tree_envelope_on_both_encodings() {
        use soap::{EncodingPolicy, TypedEncoding, TypedScratch};
        let (index, values) = lead_dataset(64, 11);
        let typed = VerifyRequest {
            index: index.clone(),
            values: values.clone(),
        };
        let tree = verify_request_envelope(&index, &values).to_document();
        let mut scratch = TypedScratch::default();

        let enc = soap::BxsaEncoding::default();
        let mut out = Vec::new();
        enc.encode_typed(&typed, None, &mut scratch, &mut out).unwrap();
        assert_eq!(out, EncodingPolicy::encode(&enc, &tree).unwrap());

        let enc = soap::XmlEncoding::default();
        let mut out = Vec::new();
        enc.encode_typed(&typed, None, &mut scratch, &mut out).unwrap();
        assert_eq!(out, EncodingPolicy::encode(&enc, &tree).unwrap());
    }

    #[test]
    fn typed_verify_service_roundtrips_and_rejects_bad_data() {
        use soap::{TypedDecode, TypedEncoding, TypedScratch};
        use std::sync::Arc;
        let enc = soap::BxsaEncoding::default();
        let mut service =
            soap::SoapService::new(enc.clone(), Arc::new(soap::ServiceRegistry::new()));
        register_verify_typed(&mut service);

        let (index, values) = lead_dataset(32, 5);
        let mut scratch = TypedScratch::default();
        let mut request = Vec::new();
        enc.encode_typed(
            &VerifyRequest { index, values },
            None,
            &mut scratch,
            &mut request,
        )
        .unwrap();
        let mut reply = Vec::new();
        let is_fault = service
            .handle(&mut soap::DecodeScratch::default(), &request, &mut reply)
            .is_fault;
        assert!(!is_fault);
        let mut response = VerifyResponse::default();
        assert_eq!(
            enc.decode_typed_reply(&reply, &mut response).unwrap(),
            TypedDecode::Matched
        );
        assert_eq!(
            response,
            VerifyResponse {
                ok: true,
                count: 32
            }
        );

        // A NaN reading fails verification but still answers cleanly.
        let (index, mut values) = lead_dataset(8, 5);
        values[2] = f64::NAN;
        let mut request = Vec::new();
        enc.encode_typed(
            &VerifyRequest { index, values },
            None,
            &mut scratch,
            &mut request,
        )
        .unwrap();
        let mut reply = Vec::new();
        let is_fault = service
            .handle(&mut soap::DecodeScratch::default(), &request, &mut reply)
            .is_fault;
        assert!(!is_fault);
        enc.decode_typed_reply(&reply, &mut response).unwrap();
        assert!(!response.ok);
        assert_eq!(response.count, 8);
    }
}
