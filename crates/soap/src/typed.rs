//! Typed-struct fast path: direct codecs between Rust values and SOAP
//! envelopes, skipping the bXDM element tree in both directions.
//!
//! The generic engine path materializes every message as a bXDM tree
//! (`SoapEnvelope::to_document` → encoding policy) and recovers a tree on
//! receipt. That symmetry is what makes the engine generic, but for the
//! common RPC shape — a fixed struct of numeric fields and packed arrays
//! — the tree is pure overhead: node allocation, name strings, and a
//! second traversal on each side. This module removes it:
//!
//! * [`ToBxsa`] encodes a struct **straight into wire bytes** — BXSA
//!   frames via [`bxsa::FrameWriter`], textual XML via
//!   [`xmltext::XmlFieldWriter`] — producing output *byte-for-byte
//!   identical* to tree-encoding the equivalent element (the
//!   differential property tests enforce this).
//! * [`FromBxsa`] decodes wire bytes **straight into struct fields** via
//!   [`bxsa::FieldReader`] / [`xmltext::XmlFieldReader`], clear-and-refill
//!   style, so the steady state allocates nothing.
//! * [`TypedEncoding`] extends [`EncodingPolicy`] with envelope-level
//!   typed codecs: it wraps the struct in the `soapenv:Envelope` /
//!   `Header` / `Body` structure (including the `bx:Deadline` header)
//!   without building those elements either.
//!
//! The typed path is an *optimization*, never a semantic fork: whenever a
//! message doesn't match the expected shape — a fault, a foreign header,
//! a `mustUnderstand` attribute, an unexpected operation — the decoder
//! reports [`Fallback`](TypedDecode::Fallback) and the caller re-runs the
//! generic tree path, which owns all the edge-case semantics.

use bxsa::estimate::{framed, plain_component_body_bound, plain_leaf_body_bound};
use std::borrow::Cow;

use bxdm::AtomicValue;
use bxsa::{ElementHead, FieldReader, FrameType, FrameWriter, LeafValue, TypedDecl, TypedName};
use xbs::{ByteOrder, TypeCode};
use xmltext::{XmlFieldReader, XmlFieldWriter, XmlHead, XmlItem};

use crate::encoding::{BxsaEncoding, EncodingPolicy, XmlEncoding};
use crate::envelope::{
    deadline_number, DeadlineHeader, DEADLINE_HEADER_LOCAL, SOAP_ENV_PREFIX, SOAP_ENV_URI,
};
use crate::error::{SoapError, SoapResult};
use crate::service::ReplyTarget;

/// The namespace declarations every envelope root carries, in the exact
/// order `SoapEnvelope::to_document` declares them (a prerequisite for
/// byte-for-byte equality with the tree path).
pub const ENVELOPE_DECLS: [TypedDecl; 4] = [
    (Some(SOAP_ENV_PREFIX), SOAP_ENV_URI),
    (Some("xsi"), bxdm::XSI_URI),
    (Some("xsd"), bxdm::XSD_URI),
    (Some(xmltext::BX_PREFIX), xmltext::BX_URI),
];

/// A value that can serialize itself as a SOAP body entry on both wire
/// encodings, without an intermediate element tree.
///
/// # Contract
///
/// Both encode methods must produce output byte-for-byte identical to
/// tree-encoding the equivalent [`bxdm::Element`]: one attribute-free
/// element per field, children in a fixed order, namespaces declared on
/// the root only. [`bxsa_body_bound`](ToBxsa::bxsa_body_bound) must be
/// computed with the `bxsa::estimate::plain_*` helpers over exactly the
/// fields `encode_bxsa` writes — it is the *exact* bound the frame
/// writer's reallocation guard asserts against.
pub trait ToBxsa {
    /// The body element's name; its local part is the operation name used
    /// for service dispatch.
    fn element_name(&self) -> TypedName;
    /// Upper bound on the element's BXSA frame *body* (composed from
    /// `bxsa::estimate::plain_*` helpers).
    fn bxsa_body_bound(&self) -> usize;
    /// Write the element as a complete BXSA frame.
    fn encode_bxsa(&self, w: &mut FrameWriter) -> SoapResult<()>;
    /// Write the element as XML markup.
    fn encode_xml(&self, w: &mut XmlFieldWriter<'_>);
}

/// A value that can fill its fields directly from a SOAP body entry on
/// both wire encodings, clear-and-refill style.
///
/// # Contract
///
/// Decoders must tolerate unknown child elements (skip them), must error
/// — not panic, not silently default — when a *required* field is absent
/// or mistyped, and must leave the reader positioned at the end of the
/// element (BXSA: finish with [`FieldReader::close`]; XML: consume the
/// element's end tag).
pub trait FromBxsa: Default {
    /// The local name this type answers to as a body entry.
    fn expected_local() -> &'static str;
    /// Fill fields from a BXSA element frame opened as `head`.
    fn decode_bxsa<'a>(&mut self, r: &mut FieldReader<'a>, head: &ElementHead<'a>)
        -> SoapResult<()>;
    /// Fill fields from an XML element opened as `head`.
    fn decode_xml<'a>(&mut self, r: &mut XmlFieldReader<'a>, head: &XmlHead<'a>)
        -> SoapResult<()>;
}

/// A request read in place: a BXSA body entry decoded into a view whose
/// fields borrow from the request bytes — packed arrays through
/// [`FieldReader::read_array_view`] — so a handler registered with
/// [`crate::ServiceRegistry::register_view`] reads them where the
/// transport received them.
///
/// The implementing type only names the view; the `'static` instance of
/// the view struct itself is the usual choice
/// (`impl BxsaView for MyView<'static> { type View<'a> = MyView<'a>; … }`).
///
/// # Contract
///
/// As [`FromBxsa`]'s BXSA half: skip unknown children, error when a
/// required field is absent or mistyped, leave the reader at the end of
/// the element. A view never answers an error itself: any error sends
/// the request to the operation's tree handler, so a view must read the
/// same values that handler reads — where the handler takes the first
/// child of a name, so does the view.
pub trait BxsaView: 'static {
    /// The request as read from one message's bytes.
    type View<'a>;
    /// The local name this view answers to as a body entry.
    fn expected_local() -> &'static str;
    /// Read the body entry opened as `head`.
    fn decode_view<'a>(
        r: &mut FieldReader<'a>,
        head: &ElementHead<'a>,
    ) -> SoapResult<Self::View<'a>>;
}

/// Reusable scratch state for typed encodes (the BXSA frame writer's
/// scope tables and reallocation guard). One per engine / per service
/// worker; reuse is what keeps the steady state allocation-free.
pub struct TypedScratch {
    /// The frame writer reused across BXSA envelope encodes.
    pub frame: FrameWriter<'static>,
}

impl Default for TypedScratch {
    fn default() -> TypedScratch {
        TypedScratch {
            frame: FrameWriter::new(ByteOrder::Little),
        }
    }
}

/// Outcome of a typed *reply* decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TypedDecode {
    /// The reply matched the expected shape; the output struct is filled.
    Matched,
    /// The reply has a shape the typed path doesn't own (fault, foreign
    /// headers, different operation) — re-decode via the generic tree
    /// path. The output struct holds unspecified but valid contents.
    Fallback,
}

/// Outcome of a typed *request* decode (server side).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TypedRequest {
    /// The request matched; any `bx:Deadline` header was extracted.
    Matched {
        /// The propagated deadline header, if the request carried one.
        deadline: Option<DeadlineHeader>,
    },
    /// Shape not owned by the typed path (foreign or attributed headers —
    /// including `mustUnderstand` flags — or a different operation).
    Fallback,
}

/// An encoding policy that can additionally run the typed fast path.
///
/// Implemented by both concrete policies ([`BxsaEncoding`],
/// [`XmlEncoding`]); the engine and service are generic over it, so the
/// typed codecs inline just like the tree codecs do.
pub trait TypedEncoding: EncodingPolicy {
    /// Encode `msg` as a complete SOAP envelope (stamping `deadline` as a
    /// `bx:Deadline` header when present) into `out`, reusing its
    /// capacity. Byte-for-byte identical to tree-encoding the equivalent
    /// [`crate::SoapEnvelope`].
    fn encode_typed<M: ToBxsa>(
        &self,
        msg: &M,
        deadline: Option<&DeadlineHeader>,
        scratch: &mut TypedScratch,
        out: &mut Vec<u8>,
    ) -> SoapResult<()>;

    /// Decode a reply envelope directly into `out` when its single body
    /// entry matches `M`'s expected shape.
    fn decode_typed_reply<M: FromBxsa>(
        &self,
        bytes: &[u8],
        out: &mut M,
    ) -> SoapResult<TypedDecode>;

    /// [`decode_typed_reply`](TypedEncoding::decode_typed_reply) of a
    /// reply received through a [`bxsa::Scatter`], whose large arrays may
    /// sit in typed slots. Default: the reply as flat bytes
    /// ([`bxsa::Scatter::flatten`], which copies placed arrays back).
    fn decode_placed_reply<M: FromBxsa>(
        &self,
        reply: &mut bxsa::Scatter,
        out: &mut M,
    ) -> SoapResult<TypedDecode> {
        self.decode_typed_reply(reply.flatten(), out)
    }

    /// Decode a request envelope directly into `out`, extracting the
    /// `bx:Deadline` header. Any *other* header entry — understood or not
    /// — forces a fallback, so `mustUnderstand` semantics always run on
    /// the generic path.
    fn decode_typed_request<M: FromBxsa>(
        &self,
        bytes: &[u8],
        out: &mut M,
    ) -> SoapResult<TypedRequest>;

    /// Cheaply extract the operation name (local name of the first body
    /// entry) without decoding the message, for dispatch. `None` when the
    /// bytes don't look like an envelope.
    fn peek_operation<'a>(&self, bytes: &'a [u8]) -> Option<&'a str>;

    /// Send `msg` as a reply envelope (no header) to `reply`: the bytes
    /// [`encode_typed`](TypedEncoding::encode_typed) writes, gathered
    /// where the policy and the target can — large packed arrays going
    /// to the socket from `msg`'s own fields — and otherwise encoded
    /// whole into [`ReplyTarget::buf`]. Default: whole, through
    /// `encode_typed`.
    fn send_typed<M: ToBxsa>(
        &self,
        msg: &M,
        scratch: &mut TypedScratch,
        reply: &mut dyn ReplyTarget,
    ) -> SoapResult<()> {
        self.encode_typed(msg, None, scratch, reply.buf())
    }
}

/// Frame-body bounds for the deadline header chain: `(Deadline component,
/// Header component)`.
fn deadline_bounds() -> (usize, usize) {
    let budget = plain_leaf_body_bound("budgetMillis", &[], TypeCode::I64, 0);
    let hops = plain_leaf_body_bound("hops", &[], TypeCode::I64, 0);
    let deadline =
        plain_component_body_bound(DEADLINE_HEADER_LOCAL, &[], 2, framed(budget) + framed(hops));
    let header = plain_component_body_bound("Header", &[], 1, framed(deadline));
    (deadline, header)
}

/// The frame-body bounds of a typed envelope: its child count and the
/// `Envelope` and `Body` components' body bounds.
struct EnvelopeBounds {
    children: usize,
    envelope: usize,
    body: usize,
}

impl EnvelopeBounds {
    fn new<M: ToBxsa>(msg: &M, deadline: Option<&DeadlineHeader>) -> EnvelopeBounds {
        let body = plain_component_body_bound("Body", &[], 1, framed(msg.bxsa_body_bound()));
        let (children, header_frames) = match deadline {
            Some(_) => (2, framed(deadline_bounds().1)),
            None => (1, 0),
        };
        let envelope = plain_component_body_bound(
            "Envelope",
            &ENVELOPE_DECLS,
            children,
            header_frames + framed(body),
        );
        EnvelopeBounds {
            children,
            envelope,
            body,
        }
    }
}

fn write_bxsa_envelope<M: ToBxsa>(
    w: &mut FrameWriter<'_>,
    msg: &M,
    deadline: Option<&DeadlineHeader>,
    bounds: &EnvelopeBounds,
) -> SoapResult<()> {
    let env = TypedName::new(Some(SOAP_ENV_PREFIX), "Envelope");
    w.begin_component(env, &ENVELOPE_DECLS, bounds.children, bounds.envelope)?;
    if let Some(h) = deadline {
        let (dl_body, header_body) = deadline_bounds();
        let bx = xmltext::BX_PREFIX;
        w.begin_component(
            TypedName::new(Some(SOAP_ENV_PREFIX), "Header"),
            &[],
            1,
            header_body,
        )?;
        w.begin_component(
            TypedName::new(Some(bx), DEADLINE_HEADER_LOCAL),
            &[],
            2,
            dl_body,
        )?;
        w.leaf(
            TypedName::new(Some(bx), "budgetMillis"),
            &[],
            h.budget_millis.min(i64::MAX as u64) as i64,
        )?;
        w.leaf(TypedName::new(Some(bx), "hops"), &[], h.hops as i64)?;
        w.end_component()?;
        w.end_component()?;
    }
    w.begin_component(
        TypedName::new(Some(SOAP_ENV_PREFIX), "Body"),
        &[],
        1,
        bounds.body,
    )?;
    msg.encode_bxsa(w)?;
    w.end_component()?;
    w.end_component()?;
    Ok(())
}

/// Read a `bx:Deadline` component's fields in the language the tree
/// read, [`DeadlineHeader::from_element`], accepts: the first
/// `budgetMillis` and the first `hops`, each read by [`deadline_number`].
/// `Ok(None)` means the tree read refuses the header — the caller falls
/// back to the generic path, which answers it with the proper fault.
fn read_deadline_bxsa<'a>(
    r: &mut FieldReader<'a>,
    head: &ElementHead<'a>,
) -> SoapResult<Option<DeadlineHeader>> {
    let (mut budget, mut hops) = (None, None);
    for _ in 0..head.child_count {
        let f = r.open()?;
        let slot = match f.local {
            "budgetMillis" if budget.is_none() => &mut budget,
            "hops" if hops.is_none() => &mut hops,
            _ => {
                r.skip(&f)?;
                continue;
            }
        };
        *slot = Some(read_deadline_number_bxsa(r, &f)?);
    }
    r.close(head)?;
    Ok(deadline_of(budget.flatten(), hops.flatten()))
}

/// One `bx:Deadline` field from the element `f` opens: a leaf's value,
/// or the text of a component holding only character data (comments
/// and processing instructions aside), read by [`deadline_number`].
fn read_deadline_number_bxsa<'a>(
    r: &mut FieldReader<'a>,
    f: &ElementHead<'a>,
) -> SoapResult<Option<u64>> {
    match f.kind {
        FrameType::Leaf => Ok(deadline_number(r.read_leaf(f)?)),
        FrameType::Component => {
            let mut text = Cow::Borrowed("");
            let mut text_only = true;
            for _ in 0..f.child_count {
                let c = r.open()?;
                if c.kind == FrameType::CharData {
                    let piece = r.read_char_data(&c)?;
                    text = match text {
                        Cow::Borrowed("") => Cow::Borrowed(piece),
                        joined => Cow::Owned(joined.into_owned() + piece),
                    };
                } else {
                    text_only &= !c.kind.is_element();
                    r.skip(&c)?;
                }
            }
            r.close(f)?;
            Ok(text_only
                .then(|| deadline_number(LeafValue::Str(&text)))
                .flatten())
        }
        _ => {
            r.skip(f)?;
            Ok(None)
        }
    }
}

fn deadline_of(budget: Option<u64>, hops: Option<u64>) -> Option<DeadlineHeader> {
    Some(DeadlineHeader::new(
        budget?,
        hops?.min(u32::MAX as u64) as u32,
    ))
}

/// Walk a BXSA envelope, read by `r`, whose single body entry is named
/// `local`:
/// `Header` entries go to `header` (which returns `false`, or an error,
/// to fall back: a header the typed path cannot read is answered on the
/// tree path), the body entry to `body`, and then `Body`, `Envelope` and
/// the document must close cleanly, checksum trailer included. `Ok(false)`
/// means the message has a shape the typed path doesn't own (a second
/// body, a late header, anything else) — decode it on the generic tree
/// path.
fn decode_bxsa_envelope<'a>(
    mut r: FieldReader<'a>,
    local: &str,
    mut header: impl FnMut(&mut FieldReader<'a>, &ElementHead<'a>) -> SoapResult<bool>,
    mut body: impl FnMut(&mut FieldReader<'a>, &ElementHead<'a>) -> SoapResult<()>,
) -> SoapResult<bool> {
    if r.top_count() != 1 {
        return Ok(false);
    }
    let env = r.open()?;
    if env.kind != FrameType::Component || env.local != "Envelope" || env.attr_count != 0 {
        return Ok(false);
    }
    let mut matched = false;
    for _ in 0..env.child_count {
        let child = r.open()?;
        match (child.kind, child.local) {
            (FrameType::Component, "Header") if !matched => {
                if !header(&mut r, &child).unwrap_or(false) {
                    return Ok(false);
                }
            }
            (FrameType::Component, "Body") if !matched && child.child_count == 1 => {
                let first = r.open()?;
                if !first.kind.is_element() || first.local != local || first.attr_count != 0 {
                    return Ok(false);
                }
                body(&mut r, &first)?;
                r.close(&child)?;
                matched = true;
            }
            _ => return Ok(false),
        }
    }
    if !matched {
        return Ok(false);
    }
    r.close(&env)?;
    r.finish()?;
    Ok(true)
}

/// A request's `Header` walk: the first `bx:Deadline` is read into
/// `deadline`, as the tree path reads the first, and any other element
/// without attributes is read past, as the tree path ignores it. Anything
/// else is `Ok(false)`: a header with attributes may demand
/// mustUnderstand processing the typed path doesn't do, and a malformed
/// deadline gets its answer on the tree path.
fn read_request_header_bxsa<'a>(
    r: &mut FieldReader<'a>,
    header: &ElementHead<'a>,
    deadline: &mut Option<DeadlineHeader>,
) -> SoapResult<bool> {
    for _ in 0..header.child_count {
        let h = r.open()?;
        if h.kind.is_element() && h.attr_count == 0 && h.local != DEADLINE_HEADER_LOCAL {
            r.skip(&h)?;
            continue;
        }
        if h.kind != FrameType::Component || h.local != DEADLINE_HEADER_LOCAL || h.attr_count != 0 {
            return Ok(false);
        }
        if deadline.is_some() {
            r.skip(&h)?;
            continue;
        }
        match read_deadline_bxsa(r, &h)? {
            Some(d) => *deadline = Some(d),
            None => return Ok(false),
        }
    }
    r.close(header)?;
    Ok(true)
}

/// Read a BXSA request whose single body entry is a `V`, in place: the
/// view borrows from `bytes`, and any `bx:Deadline` header comes with
/// it. `Ok(None)` means a shape the view doesn't own.
pub(crate) fn decode_view_request<'a, V: BxsaView>(
    bytes: &'a [u8],
) -> SoapResult<Option<(Option<DeadlineHeader>, V::View<'a>)>> {
    let (mut deadline, mut view) = (None, None);
    let matched = decode_bxsa_envelope(
        FieldReader::new(bytes)?,
        V::expected_local(),
        |r, header| read_request_header_bxsa(r, header, &mut deadline),
        |r, head| {
            view = Some(V::decode_view(r, head)?);
            Ok(())
        },
    )?;
    Ok(view.filter(|_| matched).map(|view| (deadline, view)))
}

impl TypedEncoding for BxsaEncoding {
    fn encode_typed<M: ToBxsa>(
        &self,
        msg: &M,
        deadline: Option<&DeadlineHeader>,
        scratch: &mut TypedScratch,
        out: &mut Vec<u8>,
    ) -> SoapResult<()> {
        scratch.frame.set_order(self.options.byte_order);
        scratch.frame.set_checksum(self.options.checksum);
        let w = &mut scratch.frame;
        let bounds = EnvelopeBounds::new(msg, deadline);
        w.begin_document(out, 1, FrameWriter::document_bound(bounds.envelope));
        match write_bxsa_envelope(w, msg, deadline, &bounds) {
            Ok(()) => Ok(w.finish_document(out)?),
            Err(e) => {
                w.abandon(out);
                Err(e)
            }
        }
    }

    /// Gathered in two passes over `msg` (see [`FrameWriter`]'s docs)
    /// when the byte order is the machine's own, no checksum is asked
    /// for and the target takes a gathered reply. Pass 1 encodes into
    /// the target's buffer, counting each array of 4 KiB or more
    /// without copying it, which settles the length; a reply with no
    /// such array is then already whole there. Otherwise the buffer
    /// holds the frame heads, and pass 2 replays the encode, handing the
    /// target's sink each array with the head bytes before it.
    fn send_typed<M: ToBxsa>(
        &self,
        msg: &M,
        scratch: &mut TypedScratch,
        reply: &mut dyn ReplyTarget,
    ) -> SoapResult<()> {
        let options = &self.options;
        if options.checksum || !options.byte_order.is_native() || !reply.can_gather() {
            return self.encode_typed(msg, None, scratch, reply.buf());
        }
        scratch.frame.set_gather(true);
        let pass1 = self.encode_typed(msg, None, scratch, reply.buf());
        scratch.frame.set_gather(false);
        pass1?;
        let w = &scratch.frame;
        if w.deferred_arrays() == 0 {
            return Ok(());
        }
        // The heads leave the buffer while the sink holds the target,
        // and go back (emptied, capacity kept) once it is done.
        let mut head = std::mem::take(reply.buf());
        let len = head.len() + w.deferred_bytes();
        let sent = (|| -> SoapResult<bool> {
            let Some(mut sink) = reply.gather(len) else {
                return Ok(false);
            };
            let mut put = |head: &[u8], payload: &[u8]| sink.put(head, payload);
            let mut replay = w.replay(&head, &mut put);
            write_bxsa_envelope(&mut replay, msg, None, &EnvelopeBounds::new(msg, None))?;
            replay.finish_replay()?;
            Ok(true)
        })();
        head.clear();
        *reply.buf() = head;
        if sent? {
            Ok(())
        } else {
            self.encode_typed(msg, None, scratch, reply.buf())
        }
    }

    fn decode_typed_reply<M: FromBxsa>(
        &self,
        bytes: &[u8],
        out: &mut M,
    ) -> SoapResult<TypedDecode> {
        decode_bxsa_reply(FieldReader::new(bytes)?, out)
    }

    /// Read in place: a placed array goes to `out`'s field by exchanging
    /// buffers (see [`FieldReader::read_array_into`]).
    fn decode_placed_reply<M: FromBxsa>(
        &self,
        reply: &mut bxsa::Scatter,
        out: &mut M,
    ) -> SoapResult<TypedDecode> {
        decode_bxsa_reply(reply.reader()?, out)
    }

    fn decode_typed_request<M: FromBxsa>(
        &self,
        bytes: &[u8],
        out: &mut M,
    ) -> SoapResult<TypedRequest> {
        let mut deadline = None;
        let matched = decode_bxsa_envelope(
            FieldReader::new(bytes)?,
            M::expected_local(),
            |r, header| read_request_header_bxsa(r, header, &mut deadline),
            |r, head| out.decode_bxsa(r, head),
        )?;
        Ok(if matched {
            TypedRequest::Matched { deadline }
        } else {
            TypedRequest::Fallback
        })
    }

    fn peek_operation<'a>(&self, bytes: &'a [u8]) -> Option<&'a str> {
        peek_bxsa_operation(bytes)
    }
}

/// A reply whose single body entry is an `M`, read by `r` (any header
/// is read past).
fn decode_bxsa_reply<M: FromBxsa>(r: FieldReader<'_>, out: &mut M) -> SoapResult<TypedDecode> {
    let matched = decode_bxsa_envelope(
        r,
        M::expected_local(),
        |r, header| {
            r.skip(header)?;
            Ok(true)
        },
        |r, head| out.decode_bxsa(r, head),
    )?;
    Ok(if matched {
        TypedDecode::Matched
    } else {
        TypedDecode::Fallback
    })
}

/// [`TypedEncoding::peek_operation`] for BXSA, which needs no policy
/// options: the local name of the first body entry.
pub(crate) fn peek_bxsa_operation(bytes: &[u8]) -> Option<&str> {
    let mut r = FieldReader::new(bytes).ok()?;
    let env = r.open().ok()?;
    if env.kind != FrameType::Component || env.local != "Envelope" {
        return None;
    }
    for _ in 0..env.child_count {
        let child = r.open().ok()?;
        if child.kind == FrameType::Component && child.local == "Body" {
            if child.child_count == 0 {
                return None;
            }
            let first = r.open().ok()?;
            return first.kind.is_element().then_some(first.local);
        }
        r.skip(&child).ok()?;
    }
    None
}

/// Read a `bx:Deadline` element's fields from XML, in the language of
/// [`read_deadline_bxsa`]: the first `budgetMillis` and `hops`, a leaf's
/// value under its annotation (as the tree reader types it) or an
/// unannotated element's text. `Ok(None)` = the tree read refuses it →
/// generic-path fallback (proper fault there).
fn read_deadline_xml<'a>(
    r: &mut XmlFieldReader<'a>,
    head: &XmlHead<'a>,
) -> SoapResult<Option<DeadlineHeader>> {
    if head.self_closing {
        return Ok(None);
    }
    let (mut budget, mut hops) = (None, None);
    loop {
        let f = match r.next()? {
            XmlItem::Start(f) => f,
            XmlItem::End(_) => return Ok(deadline_of(budget.flatten(), hops.flatten())),
            XmlItem::Eof => return Ok(None),
        };
        let slot = match f.local {
            "budgetMillis" if budget.is_none() => &mut budget,
            "hops" if hops.is_none() => &mut hops,
            _ => {
                r.skip(&f)?;
                continue;
            }
        };
        let (code, text) = r.leaf_text_any(&f)?;
        *slot = Some(match code {
            None | Some(TypeCode::Str) => deadline_number(LeafValue::Str(&text)),
            Some(code) => AtomicValue::parse_as(code, &text)
                .ok()
                .and_then(|v| deadline_number((&v).into())),
        });
    }
}

/// Walk an XML envelope whose single body entry is an `M` — the textual
/// twin of [`decode_bxsa_envelope`]. One root `Envelope` without
/// foreign attributes; `Header` entries before `Body` go to `header`
/// (which returns `false`, or an error, to fall back); `Body` holds
/// exactly the body entry, which fills `out`; then `Body`, `Envelope`
/// and the document must close. Elements match by local name, as the
/// tree path's `SoapEnvelope::take_from` does. `Ok(false)` means a shape
/// the typed path doesn't own — decode it on the generic tree path.
fn decode_xml_envelope<'a, M: FromBxsa>(
    bytes: &'a [u8],
    out: &mut M,
    mut header: impl FnMut(&mut XmlFieldReader<'a>, &XmlHead<'a>) -> SoapResult<bool>,
) -> SoapResult<bool> {
    let text = std::str::from_utf8(bytes)
        .map_err(|_| SoapError::Protocol("XML payload is not valid UTF-8".into()))?;
    let mut r = XmlFieldReader::new(text);
    match r.next()? {
        XmlItem::Start(env)
            if env.local == "Envelope" && env.extra_attrs == 0 && !env.self_closing => {}
        _ => return Ok(false),
    }
    let mut matched = false;
    loop {
        match r.next()? {
            XmlItem::Start(child) if !matched && child.local == "Header" => {
                if !header(&mut r, &child).unwrap_or(false) {
                    return Ok(false);
                }
            }
            XmlItem::Start(child) if !matched && child.local == "Body" && !child.self_closing => {
                match r.next()? {
                    XmlItem::Start(first)
                        if first.local == M::expected_local() && first.extra_attrs == 0 =>
                    {
                        out.decode_xml(&mut r, &first)?
                    }
                    _ => return Ok(false),
                }
                // Body closes right after its one entry.
                if !matches!(r.next()?, XmlItem::End(_)) {
                    return Ok(false);
                }
                matched = true;
            }
            XmlItem::End(_) if matched => break,
            _ => return Ok(false),
        }
    }
    r.finish()?;
    Ok(true)
}

impl TypedEncoding for XmlEncoding {
    fn encode_typed<M: ToBxsa>(
        &self,
        msg: &M,
        deadline: Option<&DeadlineHeader>,
        _scratch: &mut TypedScratch,
        out: &mut Vec<u8>,
    ) -> SoapResult<()> {
        // Reuse the byte buffer's capacity as the writer's String, as the
        // tree policy does. Clear *before* the UTF-8 conversion: the old
        // contents are discarded anyway, and validating an empty vector
        // is free where validating last message's bytes is an O(n) scan.
        let mut text = String::from_utf8(crate::encoding::cleared(out))
            .expect("an empty vector is valid UTF-8");
        if self.write_options.declaration {
            text.push_str("<?xml version=\"1.0\" encoding=\"UTF-8\"?>");
        }
        let mut w = XmlFieldWriter::new(&mut text, &self.write_options);
        w.begin_component("soapenv:Envelope", &ENVELOPE_DECLS);
        if let Some(h) = deadline {
            w.begin_component("soapenv:Header", &[]);
            w.begin_component("bx:Deadline", &[]);
            w.leaf(
                "bx:budgetMillis",
                &[],
                h.budget_millis.min(i64::MAX as u64) as i64,
            );
            w.leaf("bx:hops", &[], h.hops as i64);
            w.end_component("bx:Deadline");
            w.end_component("soapenv:Header");
        }
        w.begin_component("soapenv:Body", &[]);
        msg.encode_xml(&mut w);
        w.end_component("soapenv:Body");
        w.end_component("soapenv:Envelope");
        *out = text.into_bytes();
        Ok(())
    }

    fn decode_typed_reply<M: FromBxsa>(
        &self,
        bytes: &[u8],
        out: &mut M,
    ) -> SoapResult<TypedDecode> {
        let matched = decode_xml_envelope(bytes, out, |r, header| {
            r.skip(header)?;
            Ok(true)
        })?;
        Ok(if matched {
            TypedDecode::Matched
        } else {
            TypedDecode::Fallback
        })
    }

    fn decode_typed_request<M: FromBxsa>(
        &self,
        bytes: &[u8],
        out: &mut M,
    ) -> SoapResult<TypedRequest> {
        let mut deadline = None;
        let matched = decode_xml_envelope(bytes, out, |r, header| {
            if header.self_closing {
                return Ok(true);
            }
            loop {
                match r.next()? {
                    // The tree path ignores a foreign header without
                    // attributes; one with attributes may demand
                    // mustUnderstand processing the typed path doesn't do.
                    XmlItem::Start(h) if h.local != DEADLINE_HEADER_LOCAL && h.extra_attrs == 0 => {
                        r.skip(&h)?
                    }
                    XmlItem::Start(h) if h.local == DEADLINE_HEADER_LOCAL && h.extra_attrs == 0 => {
                        // The first `bx:Deadline` counts, as on the tree path.
                        if deadline.is_some() {
                            r.skip(&h)?;
                            continue;
                        }
                        match read_deadline_xml(r, &h)? {
                            Some(d) => deadline = Some(d),
                            None => return Ok(false),
                        }
                    }
                    XmlItem::End(_) => return Ok(true),
                    _ => return Ok(false),
                }
            }
        })?;
        Ok(if matched {
            TypedRequest::Matched { deadline }
        } else {
            TypedRequest::Fallback
        })
    }

    fn peek_operation<'a>(&self, bytes: &'a [u8]) -> Option<&'a str> {
        let text = std::str::from_utf8(bytes).ok()?;
        let mut r = XmlFieldReader::new(text);
        match r.next().ok()? {
            XmlItem::Start(h) if h.local == "Envelope" && !h.self_closing => {}
            _ => return None,
        }
        loop {
            match r.next().ok()? {
                XmlItem::Start(child) if child.local == "Body" => {
                    if child.self_closing {
                        return None;
                    }
                    return match r.next().ok()? {
                        XmlItem::Start(op) => Some(op.local),
                        _ => None,
                    };
                }
                XmlItem::Start(child) => r.skip(&child).ok()?,
                _ => return None,
            }
        }
    }
}

/// A minimal [`ToBxsa`]/[`FromBxsa`] fixture shared by the soap crate's
/// own tests: one packed `f64` array plus one `i64` leaf under a
/// namespaced component — the smallest shape that exercises every codec
/// feature the typed path cares about.
#[cfg(test)]
pub(crate) mod probe {
    use super::*;
    use crate::envelope::SoapEnvelope;
    use bxdm::{ArrayValue, AtomicValue, Element};
    use bxsa::estimate::plain_array_body_bound;

    pub(crate) const PROBE_NS: &str = "http://example.org/probe";
    pub(crate) const PROBE_DECLS: [TypedDecl; 1] = [(Some("p"), PROBE_NS)];

    #[derive(Debug, Clone, Default, PartialEq)]
    pub(crate) struct Probe {
        pub(crate) values: Vec<f64>,
        pub(crate) tag: i64,
    }

    impl ToBxsa for Probe {
        fn element_name(&self) -> TypedName {
            TypedName::new(Some("p"), "Probe")
        }

        fn bxsa_body_bound(&self) -> usize {
            let values = plain_array_body_bound("values", &[], TypeCode::F64, self.values.len());
            let tag = plain_leaf_body_bound("tag", &[], TypeCode::I64, 0);
            plain_component_body_bound("Probe", &PROBE_DECLS, 2, framed(values) + framed(tag))
        }

        fn encode_bxsa(&self, w: &mut FrameWriter) -> SoapResult<()> {
            w.begin_component(self.element_name(), &PROBE_DECLS, 2, self.bxsa_body_bound())?;
            w.array(TypedName::new(Some("p"), "values"), &[], &self.values)?;
            w.leaf(TypedName::new(Some("p"), "tag"), &[], self.tag)?;
            Ok(w.end_component()?)
        }

        fn encode_xml(&self, w: &mut XmlFieldWriter<'_>) {
            w.begin_component("p:Probe", &PROBE_DECLS);
            w.array("p:values", &[], &self.values);
            w.leaf("p:tag", &[], self.tag);
            w.end_component("p:Probe");
        }
    }

    impl FromBxsa for Probe {
        fn expected_local() -> &'static str {
            "Probe"
        }

        fn decode_bxsa<'a>(
            &mut self,
            r: &mut FieldReader<'a>,
            head: &ElementHead<'a>,
        ) -> SoapResult<()> {
            self.values.clear();
            let mut tag = None;
            for _ in 0..head.child_count {
                let f = r.open()?;
                match f.local {
                    "values" => r.read_array_into(&f, &mut self.values)?,
                    "tag" => tag = Some(r.read_value::<i64>(&f)?),
                    _ => r.skip(&f)?,
                }
            }
            r.close(head)?;
            self.tag =
                tag.ok_or_else(|| SoapError::Protocol("Probe is missing its tag field".into()))?;
            Ok(())
        }

        fn decode_xml<'a>(
            &mut self,
            r: &mut XmlFieldReader<'a>,
            head: &XmlHead<'a>,
        ) -> SoapResult<()> {
            self.values.clear();
            let mut tag = None;
            if !head.self_closing {
                loop {
                    match r.next()? {
                        XmlItem::Start(f) if f.local == "values" => {
                            r.array_into(&f, &mut self.values)?
                        }
                        XmlItem::Start(f) if f.local == "tag" => {
                            tag = Some(r.leaf_value::<i64>(&f)?)
                        }
                        XmlItem::Start(f) => r.skip(&f)?,
                        XmlItem::End(l) if l == head.local => break,
                        _ => {
                            return Err(SoapError::Protocol(
                                "unexpected content inside Probe".into(),
                            ))
                        }
                    }
                }
            }
            self.tag =
                tag.ok_or_else(|| SoapError::Protocol("Probe is missing its tag field".into()))?;
            Ok(())
        }
    }

    pub(crate) fn probe(len: usize) -> Probe {
        Probe {
            values: (0..len).map(|i| i as f64 * 0.25 - 3.0).collect(),
            tag: 42,
        }
    }

    pub(crate) fn probe_element(p: &Probe) -> Element {
        Element::component("p:Probe")
            .with_namespace("p", PROBE_NS)
            .with_child(Element::array("p:values", ArrayValue::F64(p.values.clone())))
            .with_child(Element::leaf("p:tag", AtomicValue::I64(p.tag)))
    }

    pub(crate) fn tree_envelope(p: &Probe, deadline: Option<DeadlineHeader>) -> SoapEnvelope {
        let mut env = SoapEnvelope::with_body(probe_element(p));
        if let Some(h) = deadline {
            h.stamp(&mut env);
        }
        env
    }
}

#[cfg(test)]
mod tests {
    use super::probe::*;
    use super::*;
    use crate::envelope::SoapEnvelope;
    use crate::fault::{FaultCode, SoapFault};
    use bxdm::{AtomicValue, Element};
    use bxsa::EncodeOptions;

    #[test]
    fn bxsa_typed_envelope_is_byte_identical_to_tree() {
        for order in [ByteOrder::Little, ByteOrder::Big] {
            let enc = BxsaEncoding {
                options: EncodeOptions { byte_order: order, ..Default::default() },
            };
            let mut scratch = TypedScratch::default();
            for deadline in [None, Some(DeadlineHeader::new(250, 8))] {
                for len in [0usize, 3, 1000] {
                    let p = probe(len);
                    let tree = EncodingPolicy::encode(&enc, &tree_envelope(&p, deadline).to_document()).unwrap();
                    let mut typed = Vec::new();
                    enc.encode_typed(&p, deadline.as_ref(), &mut scratch, &mut typed)
                        .unwrap();
                    assert_eq!(typed, tree, "order {order:?} deadline {deadline:?} len {len}");
                }
            }
        }
    }

    #[test]
    fn xml_typed_envelope_is_byte_identical_to_tree() {
        for declaration in [false, true] {
            let enc = XmlEncoding {
                write_options: xmltext::XmlWriteOptions {
                    declaration,
                    ..Default::default()
                },
            };
            let mut scratch = TypedScratch::default();
            for deadline in [None, Some(DeadlineHeader::new(250, 8))] {
                let p = probe(5);
                let tree = EncodingPolicy::encode(&enc, &tree_envelope(&p, deadline).to_document()).unwrap();
                let mut typed = Vec::new();
                enc.encode_typed(&p, deadline.as_ref(), &mut scratch, &mut typed)
                    .unwrap();
                assert_eq!(
                    String::from_utf8(typed).unwrap(),
                    String::from_utf8(tree).unwrap(),
                    "declaration {declaration} deadline {deadline:?}"
                );
            }
        }
    }

    #[test]
    fn typed_reply_decode_roundtrips_both_encodings() {
        let p = probe(17);
        let mut scratch = TypedScratch::default();
        let mut wire = Vec::new();
        let mut back = Probe::default();

        let bin = BxsaEncoding::default();
        bin.encode_typed(&p, None, &mut scratch, &mut wire).unwrap();
        assert_eq!(
            TypedEncoding::decode_typed_reply(&bin, &wire, &mut back).unwrap(),
            TypedDecode::Matched
        );
        assert_eq!(back, p);

        let xml = XmlEncoding::default();
        xml.encode_typed(&p, None, &mut scratch, &mut wire).unwrap();
        back = Probe::default();
        assert_eq!(
            TypedEncoding::decode_typed_reply(&xml, &wire, &mut back).unwrap(),
            TypedDecode::Matched
        );
        assert_eq!(back, p);
    }

    #[test]
    fn fault_and_foreign_shapes_fall_back() {
        let fault_env = SoapEnvelope::with_body(
            SoapFault::new(FaultCode::Client, "no such operation").to_element(),
        );
        let mut back = Probe::default();
        for_each_encoding(|enc| {
            let bytes = enc.tree_encode(&fault_env.to_document()).unwrap();
            assert_eq!(
                enc.reply(&bytes, &mut back).unwrap(),
                TypedDecode::Fallback
            );
        });
        // A different operation name also falls back.
        let other = SoapEnvelope::with_body(Element::component("Other"));
        for_each_encoding(|enc| {
            let bytes = enc.tree_encode(&other.to_document()).unwrap();
            assert_eq!(
                enc.reply(&bytes, &mut back).unwrap(),
                TypedDecode::Fallback
            );
        });
    }

    /// Run a closure once with each typed encoding (monomorphized —
    /// TypedEncoding is deliberately not object safe).
    fn for_each_encoding(mut f: impl FnMut(&dyn TestEncoding)) {
        f(&BxsaEncoding::default());
        f(&XmlEncoding::default());
    }

    /// Object-safe shim over the two concrete encodings for test loops.
    trait TestEncoding {
        fn tree_encode(&self, doc: &bxdm::Document) -> SoapResult<Vec<u8>>;
        fn reply(&self, bytes: &[u8], out: &mut Probe) -> SoapResult<TypedDecode>;
        fn request(&self, bytes: &[u8], out: &mut Probe) -> SoapResult<TypedRequest>;
        fn peek(&self, bytes: &[u8]) -> Option<String>;
    }

    impl TestEncoding for BxsaEncoding {
        fn tree_encode(&self, doc: &bxdm::Document) -> SoapResult<Vec<u8>> {
            EncodingPolicy::encode(self, doc)
        }
        fn reply(&self, bytes: &[u8], out: &mut Probe) -> SoapResult<TypedDecode> {
            TypedEncoding::decode_typed_reply(self, bytes, out)
        }
        fn request(&self, bytes: &[u8], out: &mut Probe) -> SoapResult<TypedRequest> {
            TypedEncoding::decode_typed_request(self, bytes, out)
        }
        fn peek(&self, bytes: &[u8]) -> Option<String> {
            self.peek_operation(bytes).map(str::to_owned)
        }
    }

    impl TestEncoding for XmlEncoding {
        fn tree_encode(&self, doc: &bxdm::Document) -> SoapResult<Vec<u8>> {
            EncodingPolicy::encode(self, doc)
        }
        fn reply(&self, bytes: &[u8], out: &mut Probe) -> SoapResult<TypedDecode> {
            TypedEncoding::decode_typed_reply(self, bytes, out)
        }
        fn request(&self, bytes: &[u8], out: &mut Probe) -> SoapResult<TypedRequest> {
            TypedEncoding::decode_typed_request(self, bytes, out)
        }
        fn peek(&self, bytes: &[u8]) -> Option<String> {
            self.peek_operation(bytes).map(str::to_owned)
        }
    }

    #[test]
    fn request_decode_extracts_the_deadline_header() {
        let p = probe(4);
        let header = DeadlineHeader::new(750, 3);
        let env = tree_envelope(&p, Some(header));
        let mut back = Probe::default();
        for_each_encoding(|enc| {
            let bytes = enc.tree_encode(&env.to_document()).unwrap();
            assert_eq!(
                enc.request(&bytes, &mut back).unwrap(),
                TypedRequest::Matched {
                    deadline: Some(header)
                }
            );
            assert_eq!(back, p);
        });
        // No header at all → Matched with no deadline.
        let env = tree_envelope(&p, None);
        for_each_encoding(|enc| {
            let bytes = enc.tree_encode(&env.to_document()).unwrap();
            assert_eq!(
                enc.request(&bytes, &mut back).unwrap(),
                TypedRequest::Matched { deadline: None }
            );
        });
    }

    #[test]
    fn foreign_and_must_understand_headers_force_request_fallback() {
        let p = probe(2);
        // A mustUnderstand-flagged foreign header must never be consumed
        // by the typed path (it would skip the understanding check).
        let flagged = tree_envelope(&p, None).with_header(
            Element::component("wsse:Security")
                .with_namespace("wsse", "http://example.org/wsse")
                .with_attr("soapenv:mustUnderstand", "1"),
        );
        // A foreign header without attributes is read past, as the tree
        // path ignores it.
        let plain = tree_envelope(&p, None).with_header(Element::leaf(
            "MessageID",
            AtomicValue::Str("urn:uuid:1".into()),
        ));
        let mut back = Probe::default();
        for (env, expect) in [
            (flagged, TypedRequest::Fallback),
            (plain, TypedRequest::Matched { deadline: None }),
        ] {
            for_each_encoding(|enc| {
                let bytes = enc.tree_encode(&env.to_document()).unwrap();
                assert_eq!(enc.request(&bytes, &mut back).unwrap(), expect);
            });
        }
    }

    #[test]
    fn peek_operation_reads_the_body_entry_name() {
        let env = tree_envelope(&probe(1), Some(DeadlineHeader::new(100, 1)));
        for_each_encoding(|enc| {
            let bytes = enc.tree_encode(&env.to_document()).unwrap();
            assert_eq!(enc.peek(&bytes).as_deref(), Some("Probe"));
            assert_eq!(enc.peek(b"garbage"), None);
        });
    }
}
