//! The SOAP envelope, modeled in bXDM.

use std::time::Duration;

use bxdm::{AtomicValue, Content, Document, Element, Node};
use bxsa::LeafValue;
use transport::Deadline;

use crate::error::{SoapError, SoapResult};
use crate::fault::{FaultCode, SoapFault};

/// SOAP 1.1 envelope namespace (the paper's era).
pub const SOAP_ENV_URI: &str = "http://schemas.xmlsoap.org/soap/envelope/";
/// Conventional prefix for the envelope namespace.
pub const SOAP_ENV_PREFIX: &str = "soapenv";

/// A SOAP message: optional header entries plus body entries.
///
/// The envelope is deliberately *not* stored as a pre-built element tree:
/// it materializes into bXDM on send ([`SoapEnvelope::into_document`])
/// and is recovered from bXDM on receive ([`SoapEnvelope::take_from`]),
/// keeping the engine symmetric across encodings.
///
/// Both hand-offs move the entries rather than copy them, so a payload
/// crosses the envelope/document boundary without a pass over its
/// bytes: the caller's envelope becomes the document the encoder reads,
/// and a decoded document's entries become the envelope a handler
/// borrows. A server lends the entries out of its reused decode target
/// and puts them back afterwards, so the next decode refills the same
/// array buffers in place. The copying
/// forms ([`SoapEnvelope::to_document`], [`SoapEnvelope::from_document`])
/// are thin wrappers for callers that must keep the original.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SoapEnvelope {
    /// Children of `soapenv:Header` (absent when empty).
    pub headers: Vec<Element>,
    /// Children of `soapenv:Body`.
    pub body: Vec<Element>,
}

impl SoapEnvelope {
    /// An envelope with a single body entry (the common RPC shape).
    pub fn with_body(body: Element) -> SoapEnvelope {
        SoapEnvelope {
            headers: Vec::new(),
            body: vec![body],
        }
    }

    /// Add a header entry (chainable).
    pub fn with_header(mut self, header: Element) -> SoapEnvelope {
        self.headers.push(header);
        self
    }

    /// The first body entry, if any.
    pub fn body_element(&self) -> Option<&Element> {
        self.body.first()
    }

    /// The local name of the first body entry — used as the operation
    /// name by the service dispatcher.
    pub fn operation(&self) -> Option<&str> {
        self.body_element().map(|e| e.name.local())
    }

    /// `true` when the body is a `soapenv:Fault`.
    pub fn is_fault(&self) -> bool {
        self.body_element()
            .map(|e| e.name.local() == "Fault")
            .unwrap_or(false)
    }

    /// Parse the body as a fault, if it is one.
    pub fn as_fault(&self) -> Option<SoapFault> {
        if !self.is_fault() {
            return None;
        }
        self.body_element().map(SoapFault::from_element)
    }

    /// Materialize the envelope as a bXDM document, moving the entries
    /// into the tree (no copy of the payload).
    ///
    /// The root declares the envelope namespace plus the `xsi`/`xsd`/`bx`
    /// typing namespaces, so typed leaf and array payloads are
    /// self-describing in the textual encoding too (paper §4.2).
    pub fn into_document(self) -> Document {
        let mut envelope = Element::component(format!("{SOAP_ENV_PREFIX}:Envelope"))
            .with_namespace(SOAP_ENV_PREFIX, SOAP_ENV_URI)
            .with_namespace("xsi", bxdm::XSI_URI)
            .with_namespace("xsd", bxdm::XSD_URI)
            .with_namespace(xmltext::BX_PREFIX, xmltext::BX_URI);
        if !self.headers.is_empty() {
            envelope.push_child(wrap_entries("Header", self.headers));
        }
        envelope.push_child(wrap_entries("Body", self.body));
        Document::with_root(envelope)
    }

    /// [`into_document`](SoapEnvelope::into_document) for a caller that
    /// keeps the envelope: copies every entry.
    pub fn to_document(&self) -> Document {
        self.clone().into_document()
    }

    /// Move the header and body entries out of a decoded document,
    /// leaving its `Envelope`/`Header`/`Body` skeleton behind.
    ///
    /// Tolerant of any prefix bound to the SOAP namespace, and of
    /// documents that omit the namespace declarations entirely (as the
    /// minimal encodings used in the size experiments do) by falling back
    /// to local-name matching. Header entries of every `Header` element
    /// are kept; of several `Body` elements the last wins. Non-element
    /// nodes between entries (whitespace text) are dropped.
    pub fn take_from(doc: &mut Document) -> SoapResult<SoapEnvelope> {
        let root = doc
            .root_mut()
            .ok_or_else(|| SoapError::Protocol("message has no root element".into()))?;
        if root.name.local() != "Envelope" {
            return Err(SoapError::Protocol(format!(
                "expected Envelope, found {}",
                root.name.local()
            )));
        }
        let mut headers = Vec::new();
        let mut body = None;
        if let Content::Children(parts) = &mut root.content {
            for part in parts.iter_mut().filter_map(Node::as_element_mut) {
                match part.name.local() {
                    "Header" => headers.extend(drain_entries(part)),
                    "Body" => body = Some(drain_entries(part).collect()),
                    _ => {}
                }
            }
        }
        let body = body.ok_or_else(|| SoapError::Protocol("Envelope has no Body".into()))?;
        Ok(SoapEnvelope { headers, body })
    }

    /// Put entries taken by [`take_from`](SoapEnvelope::take_from) back
    /// into the document's first `Header` and first `Body`, so a reused
    /// decode target keeps their buffers for the next decode. Entries
    /// with no matching skeleton element are dropped.
    pub(crate) fn restore_into(self, doc: &mut Document) {
        let Some(Element {
            content: Content::Children(parts),
            ..
        }) = doc.root_mut()
        else {
            return;
        };
        let (mut headers, mut body) = (Some(self.headers), Some(self.body));
        for part in parts.iter_mut().filter_map(Node::as_element_mut) {
            let entries = match part.name.local() {
                "Header" => headers.take(),
                "Body" => body.take(),
                _ => None,
            };
            if let Some(entries) = entries {
                part.children_mut()
                    .extend(entries.into_iter().map(Node::Element));
            }
        }
    }

    /// Recover a copy of the envelope from a decoded document (see
    /// [`take_from`](SoapEnvelope::take_from), which moves instead).
    pub fn from_document(doc: &Document) -> SoapResult<SoapEnvelope> {
        SoapEnvelope::take_from(&mut doc.clone())
    }

    /// Total number of bXDM nodes in the envelope (diagnostics).
    pub fn node_count(&self) -> usize {
        self.headers
            .iter()
            .chain(&self.body)
            .map(Element::node_count)
            .sum()
    }
}

/// `soapenv:<local>` holding `entries` as its children.
fn wrap_entries(local: &str, entries: Vec<Element>) -> Element {
    let mut wrapper = Element::component(format!("{SOAP_ENV_PREFIX}:{local}"));
    *wrapper.children_mut() = entries.into_iter().map(Node::Element).collect();
    wrapper
}

/// Move the element children out of `parent`, keeping its child list's
/// capacity for the entries to come back to.
fn drain_entries(parent: &mut Element) -> impl Iterator<Item = Element> + '_ {
    parent.children_mut().drain(..).filter_map(|n| match n {
        Node::Element(e) => Some(e),
        _ => None,
    })
}

/// Find a header entry by local name.
pub fn find_header<'a>(envelope: &'a SoapEnvelope, local: &str) -> Option<&'a Element> {
    envelope.headers.iter().find(|h| h.name.local() == local)
}

/// Local name of the deadline header block (`bx:Deadline`).
pub const DEADLINE_HEADER_LOCAL: &str = "Deadline";

/// Default hop allowance stamped by a client that doesn't choose one.
pub const DEFAULT_HOPS: u32 = 8;

/// The retry hint a node attaches when it rejects a request whose
/// `bx:Deadline` budget was already spent on arrival: the fixed backoff
/// suggested to a caller whose own clock has clearly run out.
pub const EXPIRED_RETRY_AFTER: Duration = Duration::from_secs(1);

/// The `bx:Deadline` header block: gRPC-style end-to-end deadline
/// propagation for SOAP.
///
/// The header carries a *relative* budget — "you have this many
/// milliseconds of my time left" — plus a hop count. Each node that
/// receives it restarts a local clock ([`DeadlineHeader::start`]), does
/// its work, and forwards a header decremented by its own elapsed time
/// and one hop ([`DeadlineHeader::decremented`]). Relative budgets avoid
/// clock synchronization between hops; time on the wire is invisible to
/// the scheme, which is the standard trade for deadline propagation
/// without synchronized clocks.
///
/// Wire shape (self-describing in both encodings, since the envelope root
/// declares the `bx` namespace):
///
/// ```xml
/// <bx:Deadline>
///   <bx:budgetMillis xsi:type="xsd:long">250</bx:budgetMillis>
///   <bx:hops xsi:type="xsd:long">8</bx:hops>
/// </bx:Deadline>
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadlineHeader {
    /// Remaining time budget, in milliseconds. `0` means "already
    /// expired" — a receiver faults without doing any work.
    pub budget_millis: u64,
    /// Hops this request may still traverse; an intermediary that sees
    /// `0` refuses to forward.
    pub hops: u32,
}

impl DeadlineHeader {
    /// A header with an explicit budget and hop allowance.
    pub fn new(budget_millis: u64, hops: u32) -> DeadlineHeader {
        DeadlineHeader { budget_millis, hops }
    }

    /// Capture what's left of a live [`Deadline`] (with the default hop
    /// allowance). `None` when the deadline is unbounded — unbounded
    /// calls stamp no header.
    pub fn from_deadline(deadline: &Deadline) -> Option<DeadlineHeader> {
        let budget = deadline.budget()?;
        let left = budget.saturating_sub(deadline.elapsed());
        Some(DeadlineHeader::new(left.as_millis() as u64, DEFAULT_HOPS))
    }

    /// Already spent on arrival?
    pub fn expired(&self) -> bool {
        self.budget_millis == 0
    }

    /// The one `bx:Deadline` arrival gate every receiving node runs. A
    /// budget already spent is refused with the deadline-expired fault
    /// and its retry hint, before any work (the caller is gone, so the
    /// work would be waste). Otherwise the budget restarts as this
    /// node's local clock.
    pub(crate) fn admit(&self) -> Result<Admitted, Refusal> {
        if self.expired() {
            return Err(Refusal {
                fault: SoapFault::deadline_expired(EXPIRED_RETRY_AFTER),
                retry_after: Some(EXPIRED_RETRY_AFTER),
            });
        }
        Ok(Admitted {
            header: *self,
            local: self.start(),
        })
    }

    /// The relay form of [`admit`](DeadlineHeader::admit): a header with
    /// no hops left cannot be forwarded, and that is the sender's
    /// mistake (likely a routing loop), so it is refused with a
    /// `Client` fault.
    pub(crate) fn admit_relay(&self) -> Result<Admitted, Refusal> {
        let admitted = self.admit()?;
        if self.hops == 0 {
            return Err(Refusal {
                fault: SoapFault::new(
                    FaultCode::Client,
                    "bx:Deadline hop count exhausted at intermediary",
                ),
                retry_after: None,
            });
        }
        Ok(admitted)
    }

    /// Restart the budget as a local clock: the receiver's view of "how
    /// long may I work on this request".
    pub fn start(&self) -> Deadline {
        Deadline::within(Duration::from_millis(self.budget_millis))
    }

    /// The header to forward after spending `elapsed` locally: budget
    /// down by the time spent, hop count down by one (both saturating).
    pub fn decremented(&self, elapsed: Duration) -> DeadlineHeader {
        DeadlineHeader {
            budget_millis: self
                .budget_millis
                .saturating_sub(elapsed.as_millis() as u64),
            hops: self.hops.saturating_sub(1),
        }
    }

    /// Materialize as the `bx:Deadline` header element.
    pub fn to_element(&self) -> Element {
        let bx = xmltext::BX_PREFIX;
        Element::component(format!("{bx}:{DEADLINE_HEADER_LOCAL}"))
            .with_child(Element::leaf(
                format!("{bx}:budgetMillis"),
                AtomicValue::I64(self.budget_millis.min(i64::MAX as u64) as i64),
            ))
            .with_child(Element::leaf(
                format!("{bx}:hops"),
                AtomicValue::I64(self.hops as i64),
            ))
    }

    /// Parse a header element. Names match by local name, and each of
    /// `budgetMillis` and `hops` is the first child of that name: a leaf
    /// holding a non-negative integer of any width, or text that reads,
    /// trimmed, as a decimal `u64` — a string leaf, or an element
    /// holding only character data (XML without type annotations).
    /// Floats, booleans, arrays and nested elements are refused. The
    /// typed readers accept exactly this language.
    pub fn from_element(header: &Element) -> SoapResult<DeadlineHeader> {
        let budget_millis = leaf_u64(header, "budgetMillis").ok_or_else(|| {
            SoapError::Protocol("bx:Deadline header lacks a budgetMillis value".into())
        })?;
        let hops = leaf_u64(header, "hops")
            .ok_or_else(|| SoapError::Protocol("bx:Deadline header lacks a hops value".into()))?;
        Ok(DeadlineHeader {
            budget_millis,
            hops: hops.min(u32::MAX as u64) as u32,
        })
    }

    /// The deadline header of an envelope, if present. A present but
    /// malformed header is an error — a node must not silently ignore a
    /// budget it failed to read.
    pub fn from_envelope(envelope: &SoapEnvelope) -> SoapResult<Option<DeadlineHeader>> {
        match find_header(envelope, DEADLINE_HEADER_LOCAL) {
            Some(h) => DeadlineHeader::from_element(h).map(Some),
            None => Ok(None),
        }
    }

    /// Stamp this header onto an envelope, replacing any previous
    /// deadline header (re-stamping per retry attempt must not stack).
    pub fn stamp(&self, envelope: &mut SoapEnvelope) {
        envelope
            .headers
            .retain(|h| h.name.local() != DEADLINE_HEADER_LOCAL);
        envelope.headers.push(self.to_element());
    }

    /// [`stamp`](DeadlineHeader::stamp) on an envelope already built into
    /// a document: the same edit, made in the document's `Header`
    /// (created in front of the `Body` when absent), so the result equals
    /// stamping the envelope and then calling
    /// [`SoapEnvelope::into_document`].
    pub(crate) fn stamp_document(&self, doc: &mut Document) {
        let Some(root) = doc.root_mut() else {
            return;
        };
        let parts = root.children_mut();
        let at = parts
            .iter()
            .position(|n| n.as_element().is_some_and(|e| e.name.local() == "Header"))
            .unwrap_or_else(|| {
                parts.insert(0, Node::Element(wrap_entries("Header", Vec::new())));
                0
            });
        if let Node::Element(header) = &mut parts[at] {
            let entries = header.children_mut();
            entries.retain(|n| {
                n.as_element()
                    .is_none_or(|e| e.name.local() != DEADLINE_HEADER_LOCAL)
            });
            entries.push(Node::Element(self.to_element()));
        }
    }
}

/// A request the `bx:Deadline` arrival gate admitted: the header as it
/// arrived and the local clock its budget restarted.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Admitted {
    header: DeadlineHeader,
    local: Deadline,
}

impl Admitted {
    /// How long this node may work on the request.
    pub(crate) fn local(&self) -> Deadline {
        self.local
    }

    /// What is left of the budget now: the cap on writing the reply
    /// (zero once the work spent it all).
    pub(crate) fn remaining(&self) -> Duration {
        let local = self.local;
        local.budget().unwrap_or_default().saturating_sub(local.elapsed())
    }

    /// The header a relay forwards: the time spent here off the budget,
    /// one hop consumed.
    pub(crate) fn forward(&self) -> DeadlineHeader {
        self.header.decremented(self.local.elapsed())
    }
}

/// A request the `bx:Deadline` arrival gate refused: the fault to answer
/// with, and the retry hint HTTP also sends as `Retry-After`.
#[derive(Debug, Clone)]
pub(crate) struct Refusal {
    pub(crate) fault: SoapFault,
    pub(crate) retry_after: Option<Duration>,
}

/// The `bx:Deadline` number language, one field's value: a
/// non-negative integer of any width, or text that reads, trimmed, as a
/// decimal `u64` (`str::parse`). Floats, booleans and anything else are
/// refused. The tree read ([`DeadlineHeader::from_element`]) and the
/// typed readers both decide through this function.
pub(crate) fn deadline_number(value: LeafValue<'_>) -> Option<u64> {
    match value {
        LeafValue::I8(v) => u64::try_from(v).ok(),
        LeafValue::I16(v) => u64::try_from(v).ok(),
        LeafValue::I32(v) => u64::try_from(v).ok(),
        LeafValue::I64(v) => u64::try_from(v).ok(),
        LeafValue::U8(v) => Some(v.into()),
        LeafValue::U16(v) => Some(v.into()),
        LeafValue::U32(v) => Some(v.into()),
        LeafValue::U64(v) => Some(v),
        LeafValue::Str(text) => text.trim().parse().ok(),
        LeafValue::F32(_) | LeafValue::F64(_) | LeafValue::Bool(_) => None,
    }
}

/// The first child named `local`, read by [`deadline_number`]: a leaf's
/// value, or the text of an element whose children are character data
/// (comments and processing instructions aside).
fn leaf_u64(parent: &Element, local: &str) -> Option<u64> {
    let child = parent.find_child(local)?;
    match &child.content {
        Content::Leaf(v) => deadline_number(v.into()),
        Content::Children(nodes) if !nodes.iter().any(|n| matches!(n, Node::Element(_))) => {
            deadline_number(LeafValue::Str(&child.text_content()))
        }
        _ => None,
    }
}

/// `true` if a header entry is flagged `soapenv:mustUnderstand="1"`.
pub fn must_understand(header: &Element) -> bool {
    header
        .attributes
        .iter()
        .any(|a| a.name.local() == "mustUnderstand" && matches!(a.value.as_str(), Some("1" | "true")))
}

/// Strip envelope-level wrapping from a node for diagnostics: the body
/// text of the first body entry.
pub fn body_text(envelope: &SoapEnvelope) -> String {
    envelope
        .body_element()
        .map(Element::text_content)
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bxdm::{ArrayValue, AtomicValue};

    fn sample() -> SoapEnvelope {
        SoapEnvelope::with_body(
            Element::component("m:Verify")
                .with_namespace("m", "http://example.org/m")
                .with_child(Element::array("m:data", ArrayValue::F64(vec![1.0, 2.0]))),
        )
        .with_header(
            Element::leaf("wsa:MessageID", AtomicValue::Str("urn:uuid:1".into()))
                .with_namespace("wsa", "http://www.w3.org/2005/08/addressing"),
        )
    }

    #[test]
    fn document_roundtrip() {
        let env = sample();
        let doc = env.to_document();
        let back = SoapEnvelope::from_document(&doc).unwrap();
        assert_eq!(back, env);
    }

    #[test]
    fn roundtrip_through_both_encodings() {
        let env = sample();
        let doc = env.to_document();

        let xml = xmltext::to_string(&doc).unwrap();
        let back = SoapEnvelope::from_document(&xmltext::parse(&xml).unwrap()).unwrap();
        assert_eq!(back, env);

        let bin = bxsa::encode(&doc).unwrap();
        let back = SoapEnvelope::from_document(&bxsa::decode(&bin).unwrap()).unwrap();
        assert_eq!(back, env);
    }

    /// An envelope shaped by generated numbers: `headers` header entries
    /// (each possibly `mustUnderstand`), `entries` body entries mixing
    /// packed arrays of `len` values, typed leaves and text, and nested
    /// components.
    fn shaped(headers: usize, entries: usize, len: usize, salt: u64) -> SoapEnvelope {
        let mut env = SoapEnvelope::default();
        for h in 0..headers {
            let mut e = Element::leaf(
                format!("h:H{h}"),
                AtomicValue::I64((salt + h as u64) as i64),
            )
            .with_namespace("h", "http://example.org/h");
            if (salt + h as u64).is_multiple_of(2) {
                e = e.with_attr("soapenv:mustUnderstand", "1");
            }
            env.headers.push(e);
        }
        for b in 0..entries {
            let values: Vec<f64> = (0..len)
                .map(|i| (i as u64 * 31 + salt) as f64 / 7.0)
                .collect();
            let entry = Element::component(format!("m:Op{b}"))
                .with_namespace("m", "http://example.org/m")
                .with_child(Element::array("m:v", ArrayValue::F64(values)))
                .with_child(Element::array(
                    "m:i",
                    ArrayValue::I32((0..len as i32).collect()),
                ))
                .with_child(Element::leaf("m:s", AtomicValue::Str(format!("s{salt}"))))
                .with_child(
                    Element::component("m:nested")
                        .with_child(Element::leaf("m:b", AtomicValue::Bool(salt.is_multiple_of(3)))),
                );
            env.body.push(entry);
        }
        env
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(128))]

        /// The moving builder and the copying wrapper build the same
        /// document, with and without headers; taking the entries back
        /// out recovers the envelope, and restoring them rebuilds the
        /// document exactly.
        #[test]
        fn moved_and_copied_documents_agree(
            headers in 0usize..4,
            entries in 0usize..3,
            len in 0usize..40,
            salt in 0u64..1000,
        ) {
            let env = shaped(headers, entries, len, salt);
            let copied = env.to_document();
            let mut moved = env.clone().into_document();
            proptest::prop_assert_eq!(&moved, &copied);
            proptest::prop_assert_eq!(SoapEnvelope::from_document(&copied).unwrap(), env.clone());
            let taken = SoapEnvelope::take_from(&mut moved).unwrap();
            proptest::prop_assert_eq!(&taken, &env);
            taken.restore_into(&mut moved);
            proptest::prop_assert_eq!(&moved, &copied);
        }

        /// Stamping the built document is stamping the envelope and then
        /// building it — whether the envelope had headers, a deadline
        /// already, or neither.
        #[test]
        fn stamp_document_matches_stamp_then_build(
            headers in 0usize..3,
            prior in 0u64..3,
            budget in 0u64..100_000,
            hops in 0u32..9,
        ) {
            let mut env = shaped(headers, 1, 3, budget);
            if prior > 0 {
                DeadlineHeader::new(prior * 1000, 8).stamp(&mut env);
            }
            let header = DeadlineHeader::new(budget, hops);
            let mut doc = env.to_document();
            header.stamp_document(&mut doc);
            header.stamp_document(&mut doc);
            header.stamp(&mut env);
            proptest::prop_assert_eq!(doc, env.into_document());
        }
    }

    #[test]
    fn taken_entries_leave_a_reusable_decode_target() {
        let env = sample();
        let bin = bxsa::encode(&env.to_document()).unwrap();
        let mut doc = Document::new();
        bxsa::decode_into(&bin, &mut doc).unwrap();
        let array_ptr = |doc: &Document| {
            let body = doc.root().unwrap().find_child("Body").unwrap();
            let data = body
                .child_elements()
                .next()
                .unwrap()
                .find_child("data")
                .unwrap();
            data.as_f64_array().unwrap().as_ptr()
        };
        let before = array_ptr(&doc);
        let taken = SoapEnvelope::take_from(&mut doc).unwrap();
        assert_eq!(taken, env);
        taken.restore_into(&mut doc);
        bxsa::decode_into(&bin, &mut doc).unwrap();
        assert_eq!(
            array_ptr(&doc),
            before,
            "the refill must land in the restored buffer"
        );
        assert_eq!(SoapEnvelope::from_document(&doc).unwrap(), env);
    }

    #[test]
    fn operation_name() {
        assert_eq!(sample().operation(), Some("Verify"));
        assert_eq!(SoapEnvelope::default().operation(), None);
    }

    #[test]
    fn structure_errors() {
        let doc = Document::with_root(Element::component("NotAnEnvelope"));
        assert!(matches!(
            SoapEnvelope::from_document(&doc),
            Err(SoapError::Protocol(_))
        ));
        let doc = Document::with_root(
            Element::component("soapenv:Envelope").with_namespace(SOAP_ENV_PREFIX, SOAP_ENV_URI),
        );
        assert!(matches!(
            SoapEnvelope::from_document(&doc),
            Err(SoapError::Protocol(_))
        ));
    }

    #[test]
    fn header_helpers() {
        let env = sample();
        assert!(find_header(&env, "MessageID").is_some());
        assert!(find_header(&env, "Nope").is_none());

        let h = Element::component("x").with_attr("soapenv:mustUnderstand", "1");
        assert!(must_understand(&h));
        let h = Element::component("x").with_attr("soapenv:mustUnderstand", "0");
        assert!(!must_understand(&h));
        let h = Element::component("x");
        assert!(!must_understand(&h));
    }

    #[test]
    fn empty_header_not_materialized() {
        let env = SoapEnvelope::with_body(Element::component("op"));
        let doc = env.to_document();
        let root = doc.root().unwrap();
        assert_eq!(root.child_elements().count(), 1); // Body only
    }

    #[test]
    fn deadline_header_roundtrips_through_both_encodings() {
        let header = DeadlineHeader::new(250, 3);
        let mut env = sample();
        header.stamp(&mut env);
        let doc = env.to_document();

        let xml = xmltext::to_string(&doc).unwrap();
        let back = SoapEnvelope::from_document(&xmltext::parse(&xml).unwrap()).unwrap();
        assert_eq!(DeadlineHeader::from_envelope(&back).unwrap(), Some(header));

        let bin = bxsa::encode(&doc).unwrap();
        let back = SoapEnvelope::from_document(&bxsa::decode(&bin).unwrap()).unwrap();
        assert_eq!(DeadlineHeader::from_envelope(&back).unwrap(), Some(header));
    }

    #[test]
    fn deadline_header_stamp_replaces_not_stacks() {
        let mut env = sample();
        DeadlineHeader::new(500, 8).stamp(&mut env);
        DeadlineHeader::new(300, 8).stamp(&mut env);
        let stamped: Vec<_> = env
            .headers
            .iter()
            .filter(|h| h.name.local() == DEADLINE_HEADER_LOCAL)
            .collect();
        assert_eq!(stamped.len(), 1);
        assert_eq!(
            DeadlineHeader::from_envelope(&env).unwrap(),
            Some(DeadlineHeader::new(300, 8))
        );
        // The unrelated header survives re-stamping.
        assert!(find_header(&env, "MessageID").is_some());
    }

    #[test]
    fn deadline_header_arithmetic() {
        let h = DeadlineHeader::new(100, 2);
        assert!(!h.expired());
        let spent = h.decremented(Duration::from_millis(30));
        assert_eq!(spent, DeadlineHeader::new(70, 1));
        // Overspending saturates to an expired header, not a wrap.
        let drained = h.decremented(Duration::from_millis(250));
        assert_eq!(drained.budget_millis, 0);
        assert!(drained.expired());
        assert_eq!(drained.decremented(Duration::ZERO).hops, 0);
    }

    #[test]
    fn deadline_header_from_live_deadline() {
        assert_eq!(DeadlineHeader::from_deadline(&Deadline::none()), None);
        let h = DeadlineHeader::from_deadline(&Deadline::within(Duration::from_secs(2))).unwrap();
        assert!(h.budget_millis <= 2000 && h.budget_millis > 1500, "{h:?}");
        assert_eq!(h.hops, DEFAULT_HOPS);
    }

    #[test]
    fn malformed_deadline_header_is_an_error_not_ignored() {
        let mut env = sample();
        env.headers
            .push(Element::component("bx:Deadline").with_child(Element::leaf(
                "bx:budgetMillis",
                AtomicValue::Str("soon".into()),
            )));
        assert!(DeadlineHeader::from_envelope(&env).is_err());
    }
}
