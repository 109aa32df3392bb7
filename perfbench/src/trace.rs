//! Spans around the calls into each layer, recorded from outside the
//! program.
//!
//! Nothing inside the stack is instrumented. Instead the traced run
//! builds its engines and servers from wrappers that forward every call
//! to the production type and time it:
//!
//! * [`TracedEncoding`] wraps an encoding policy (`EncodingPolicy +
//!   TypedEncoding + StreamEncoding`) and records a codec span per
//!   encode/decode, on whichever side (client or server) it serves;
//! * [`TracedBinding`] wraps a client binding and records the exchange;
//! * [`span`] / [`server_span`] wrap the benchmark's own calls (request
//!   build, the engine call) and the registered service handlers.
//!
//! Client spans live in a thread-local buffer with an explicit parent
//! stack. Server spans run on reactor workers and go to a shared buffer
//! with no parent; [`Analysis::absorb`] links each to the client call
//! whose exchange interval contains it (one call is outstanding at a
//! time, so the containing exchange is unique).
//!
//! In the traced binary (feature `trace`) each span also counts the heap
//! allocations its thread made inside it, with the bench crate's
//! counting allocator. The counter cannot nest, so on the client thread
//! calls alternate between two modes: in *leaf* mode the engine's
//! children (codecs, exchange) count their own allocations; in *engine*
//! mode the whole engine call is counted instead, and the engine's self
//! count is the difference of the two means.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use bxsoap::bxdm::{Document, Element};
use bxsoap::soap::{
    self, BindingPolicy, DeadlineHeader, EncodingPolicy, FromBxsa, PartScratch, SoapResult,
    StreamEncoding, ToBxsa, TypedDecode, TypedEncoding, TypedRequest, TypedScratch,
};
use bxsoap::transport::Deadline;

/// Which codec a span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Codec {
    /// BXSA binary XML.
    Bxsa,
    /// Textual XML 1.0.
    Xml,
}

/// Which transport binding a call rides.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wire {
    /// Length-prefixed framed TCP.
    Tcp,
    /// HTTP/1.1 POST with keep-alive.
    Http,
}

/// Which end of the connection a wrapper serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The calling engine.
    Client,
    /// The serving reactor worker.
    Server,
}

/// The span names: one per layer boundary the benchmark times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One whole call as the benchmark times it (the root span).
    Call,
    /// Building the request's bXDM tree.
    Build,
    /// `SoapEngine::call_with` / `call_typed_into`.
    Engine,
    /// Client-side request encode.
    ClientEncode(Codec),
    /// Server-side request decode (and operation peek).
    ServerDecode(Codec),
    /// Server-side reply encode.
    ServerEncode(Codec),
    /// Client-side reply decode.
    ClientDecode(Codec),
    /// The registered operation handler.
    Handler,
    /// `BindingPolicy::exchange_into`.
    Exchange(Wire),
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 14] = [
        Layer::Call,
        Layer::Build,
        Layer::Engine,
        Layer::ClientEncode(Codec::Bxsa),
        Layer::ServerDecode(Codec::Bxsa),
        Layer::ServerEncode(Codec::Bxsa),
        Layer::ClientDecode(Codec::Bxsa),
        Layer::ClientEncode(Codec::Xml),
        Layer::ServerDecode(Codec::Xml),
        Layer::ServerEncode(Codec::Xml),
        Layer::ClientDecode(Codec::Xml),
        Layer::Handler,
        Layer::Exchange(Wire::Tcp),
        Layer::Exchange(Wire::Http),
    ];

    /// Position in [`Layer::ALL`].
    pub fn index(self) -> usize {
        let codec = |c| if c == Codec::Bxsa { 0 } else { 4 };
        match self {
            Layer::Call => 0,
            Layer::Build => 1,
            Layer::Engine => 2,
            Layer::ClientEncode(c) => 3 + codec(c),
            Layer::ServerDecode(c) => 4 + codec(c),
            Layer::ServerEncode(c) => 5 + codec(c),
            Layer::ClientDecode(c) => 6 + codec(c),
            Layer::Handler => 11,
            Layer::Exchange(Wire::Tcp) => 12,
            Layer::Exchange(Wire::Http) => 13,
        }
    }

    /// The span name, as reported.
    pub fn name(self) -> &'static str {
        [
            "call",
            "bxdm.build",
            "soap.engine",
            "codec.bxsa.client_encode",
            "codec.bxsa.server_decode",
            "codec.bxsa.server_encode",
            "codec.bxsa.client_decode",
            "codec.xml.client_encode",
            "codec.xml.server_decode",
            "codec.xml.server_encode",
            "codec.xml.client_decode",
            "service.handler",
            "transport.tcp.exchange",
            "transport.http.exchange",
        ][self.index()]
    }

    /// The engine's children on the client thread: they count their
    /// allocations only in leaf mode.
    fn is_engine_child(self) -> bool {
        matches!(
            self,
            Layer::ClientEncode(_) | Layer::ClientDecode(_) | Layer::Exchange(_)
        )
    }
}

/// No parent (a root span, or a server span not yet linked).
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the process's trace
/// epoch; `parent` indexes the same call's span list.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Which boundary.
    pub layer: Layer,
    /// Entry time.
    pub start: u64,
    /// Exit time.
    pub end: u64,
    /// Enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// Allocation events on the span's thread inside it, when counted.
    pub allocs: Option<u64>,
}

impl Span {
    fn len(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static SERVER_SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static CLIENT: RefCell<ClientSpans> = const {
        RefCell::new(ClientSpans { spans: Vec::new(), open: Vec::new() })
    };
    static ENGINE_MODE: Cell<bool> = const { Cell::new(false) };
}

struct ClientSpans {
    spans: Vec<Span>,
    open: Vec<u32>,
}

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Is span recording on? Always false in the untraced binary, so its
/// calls skip straight to the wrapped work.
pub fn enabled() -> bool {
    // Relaxed: the flag publishes no data; the span buffers are guarded
    // by their thread or their lock.
    cfg!(feature = "trace") && ENABLED.load(Ordering::Relaxed)
}

/// Turn span recording on or off, dropping anything recorded so far
/// (this thread's client spans and all server spans).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
    CLIENT.with(|c| {
        let mut c = c.borrow_mut();
        c.spans.clear();
        c.open.clear();
    });
    server_buffer().clear();
}

fn server_buffer() -> std::sync::MutexGuard<'static, Vec<Span>> {
    // A panic while pushing leaves the Vec valid, so a poisoned lock is
    // still safe to use.
    SERVER_SPANS.lock().unwrap_or_else(|e| e.into_inner())
}

/// Choose the allocation-counting mode for the next client call: `true`
/// counts the whole engine call, `false` counts its children.
pub fn set_engine_mode(engine: bool) {
    ENGINE_MODE.with(|m| m.set(engine));
}

#[cfg(feature = "trace")]
fn counted<R>(count: bool, f: impl FnOnce() -> R) -> (R, Option<u64>) {
    if count {
        let (r, n) = bench::alloc_counter::measure(f);
        (r, Some(n))
    } else {
        (f(), None)
    }
}

#[cfg(not(feature = "trace"))]
fn counted<R>(_count: bool, f: impl FnOnce() -> R) -> (R, Option<u64>) {
    (f(), None)
}

/// Run `f` as a client-thread span of `layer`, nested under whatever
/// client span is open.
pub fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let count = match layer {
        Layer::Call => false,
        Layer::Engine => ENGINE_MODE.with(Cell::get),
        l if l.is_engine_child() => !ENGINE_MODE.with(Cell::get),
        _ => true,
    };
    let id = CLIENT.with(|c| {
        let mut c = c.borrow_mut();
        let id = c.spans.len() as u32;
        let parent = c.open.last().copied().unwrap_or(NO_PARENT);
        c.spans.push(Span {
            layer,
            start: 0,
            end: 0,
            parent,
            allocs: None,
        });
        c.open.push(id);
        id
    });
    let start = now_ns();
    let (result, allocs) = counted(count, f);
    let end = now_ns();
    CLIENT.with(|c| {
        let mut c = c.borrow_mut();
        c.open.pop();
        let s = &mut c.spans[id as usize];
        s.start = start;
        s.end = end;
        s.allocs = allocs;
    });
    result
}

/// Run `f` as a server-side span of `layer` (on a reactor worker). The
/// span is published before `f`'s caller can write the reply, so it is
/// in the buffer by the time the client sees the answer.
pub fn server_span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let start = now_ns();
    let (result, allocs) = counted(true, f);
    let end = now_ns();
    server_buffer().push(Span {
        layer,
        start,
        end,
        parent: NO_PARENT,
        allocs,
    });
    result
}

/// An encoding policy that records a codec span around every encode and
/// decode, then forwards to the production policy `E`.
#[derive(Debug, Clone)]
pub struct TracedEncoding<E> {
    inner: E,
    codec: Codec,
    side: Side,
}

impl<E> TracedEncoding<E> {
    /// Wrap `inner` (of codec `codec`) for use on `side`.
    pub fn new(inner: E, codec: Codec, side: Side) -> TracedEncoding<E> {
        TracedEncoding { inner, codec, side }
    }

    fn encode<R>(&self, f: impl FnOnce() -> R) -> R {
        match self.side {
            Side::Client => span(Layer::ClientEncode(self.codec), f),
            Side::Server => server_span(Layer::ServerEncode(self.codec), f),
        }
    }

    fn decode<R>(&self, f: impl FnOnce() -> R) -> R {
        match self.side {
            Side::Client => span(Layer::ClientDecode(self.codec), f),
            Side::Server => server_span(Layer::ServerDecode(self.codec), f),
        }
    }
}

impl<E: EncodingPolicy> EncodingPolicy for TracedEncoding<E> {
    fn content_type(&self) -> &'static str {
        self.inner.content_type()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn encode_into(&self, doc: &Document, out: &mut Vec<u8>) -> SoapResult<()> {
        self.encode(|| self.inner.encode_into(doc, out))
    }

    fn decode_into(&self, bytes: &[u8], doc: &mut Document) -> SoapResult<()> {
        self.decode(|| self.inner.decode_into(bytes, doc))
    }
}

impl<E: TypedEncoding> TypedEncoding for TracedEncoding<E> {
    fn encode_typed<M: ToBxsa>(
        &self,
        msg: &M,
        deadline: Option<&DeadlineHeader>,
        scratch: &mut TypedScratch,
        out: &mut Vec<u8>,
    ) -> SoapResult<()> {
        self.encode(|| self.inner.encode_typed(msg, deadline, scratch, out))
    }

    fn decode_typed_reply<M: FromBxsa>(
        &self,
        bytes: &[u8],
        out: &mut M,
    ) -> SoapResult<TypedDecode> {
        self.decode(|| self.inner.decode_typed_reply(bytes, out))
    }

    fn decode_typed_request<M: FromBxsa>(
        &self,
        bytes: &[u8],
        out: &mut M,
    ) -> SoapResult<TypedRequest> {
        self.decode(|| self.inner.decode_typed_request(bytes, out))
    }

    fn peek_operation<'a>(&self, bytes: &'a [u8]) -> Option<&'a str> {
        self.decode(|| self.inner.peek_operation(bytes))
    }
}

impl<E: StreamEncoding> StreamEncoding for TracedEncoding<E> {
    fn encode_part_into(&self, part: &Element, out: &mut Vec<u8>) -> SoapResult<()> {
        self.encode(|| self.inner.encode_part_into(part, out))
    }

    fn decode_part<'s>(
        &self,
        bytes: &[u8],
        scratch: &'s mut PartScratch,
    ) -> SoapResult<&'s Element> {
        self.decode(|| self.inner.decode_part(bytes, scratch))
    }
}

/// A client binding that records a span around each exchange and
/// forwards every `BindingPolicy` method to the production binding `B`.
#[derive(Debug)]
pub struct TracedBinding<B> {
    inner: B,
    wire: Wire,
}

impl<B> TracedBinding<B> {
    /// Wrap `inner`, which rides `wire`.
    pub fn new(inner: B, wire: Wire) -> TracedBinding<B> {
        TracedBinding { inner, wire }
    }

    /// The wrapped binding.
    pub fn inner(&self) -> &B {
        &self.inner
    }
}

impl<B: BindingPolicy> BindingPolicy for TracedBinding<B> {
    fn send_request(&mut self, payload: &[u8], content_type: &str) -> SoapResult<()> {
        self.inner.send_request(payload, content_type)
    }

    fn receive_response_into(&mut self, out: &mut Vec<u8>) -> SoapResult<()> {
        self.inner.receive_response_into(out)
    }

    fn receive_response(&mut self) -> SoapResult<Vec<u8>> {
        self.inner.receive_response()
    }

    fn exchange(&mut self, payload: &[u8], content_type: &str) -> SoapResult<Vec<u8>> {
        span(Layer::Exchange(self.wire), || {
            self.inner.exchange(payload, content_type)
        })
    }

    fn exchange_into(
        &mut self,
        payload: &[u8],
        content_type: &str,
        out: &mut Vec<u8>,
    ) -> SoapResult<()> {
        span(Layer::Exchange(self.wire), || {
            self.inner.exchange_into(payload, content_type, out)
        })
    }

    fn send_one_way(&mut self, payload: &[u8], content_type: &str) -> SoapResult<()> {
        self.inner.send_one_way(payload, content_type)
    }

    fn set_call_deadline(&mut self, deadline: Option<Deadline>) {
        self.inner.set_call_deadline(deadline)
    }
}

/// Wrap a tree operation handler so each run is a `service.handler` span.
pub fn traced_handler<F>(
    handler: F,
) -> impl Fn(&soap::SoapEnvelope) -> SoapResult<soap::SoapEnvelope>
where
    F: Fn(&soap::SoapEnvelope) -> SoapResult<soap::SoapEnvelope>,
{
    move |req| server_span(Layer::Handler, || handler(req))
}

/// The reported per-layer times: self time for each code layer, the
/// inclusive exchange time, and the exchange's self time as `wire`.
pub const REPORTED: [&str; 17] = [
    "bxdm.build",
    "soap.engine",
    "codec.bxsa.client_encode",
    "codec.bxsa.server_decode",
    "codec.bxsa.server_encode",
    "codec.bxsa.client_decode",
    "codec.xml.client_encode",
    "codec.xml.server_decode",
    "codec.xml.server_encode",
    "codec.xml.client_decode",
    "service.handler",
    "transport.tcp.exchange",
    "transport.http.exchange",
    "transport.tcp.wire",
    "transport.http.wire",
    "trace.call",
    "trace.glue",
];

/// Layers whose allocations are reported (`<layer>.allocs`).
pub const COUNTED: [Layer; 13] = [
    Layer::Build,
    Layer::Engine,
    Layer::ClientEncode(Codec::Bxsa),
    Layer::ServerDecode(Codec::Bxsa),
    Layer::ServerEncode(Codec::Bxsa),
    Layer::ClientDecode(Codec::Bxsa),
    Layer::ClientEncode(Codec::Xml),
    Layer::ServerDecode(Codec::Xml),
    Layer::ServerEncode(Codec::Xml),
    Layer::ClientDecode(Codec::Xml),
    Layer::Handler,
    Layer::Exchange(Wire::Tcp),
    Layer::Exchange(Wire::Http),
];

/// Slot in [`REPORTED`] for a layer's self time (the call's self time
/// is benchmark glue between spans).
fn self_slot(layer: Layer) -> usize {
    match layer {
        Layer::Call => 16,
        Layer::Exchange(Wire::Tcp) => 13,
        Layer::Exchange(Wire::Http) => 14,
        l => l.index() - 1,
    }
}

/// Slot for a layer's inclusive time, where one is reported.
fn inclusive_slot(layer: Layer) -> Option<usize> {
    match layer {
        Layer::Call => Some(15),
        Layer::Exchange(Wire::Tcp) => Some(11),
        Layer::Exchange(Wire::Http) => Some(12),
        _ => None,
    }
}

/// Allocation totals for one layer: events and the calls they came from.
#[derive(Debug, Default, Clone, Copy)]
struct AllocSum {
    events: u64,
    calls: u64,
}

/// One span as written to the trace file.
#[derive(Debug, Clone, Copy)]
pub struct KeptSpan {
    /// The call it belongs to.
    pub call: u64,
    /// Position in the call's span list (what `parent` refers to).
    pub index: u32,
    /// The span itself (`parent` indexes the call's list).
    pub span: Span,
    /// Recorded on a server worker (linked by interval).
    pub server: bool,
}

/// Per-layer self times and allocation counts, accumulated call by call.
pub struct Analysis {
    /// Per reported slot: one sample (ns) per call the layer ran in.
    samples: Vec<Vec<u32>>,
    allocs: [AllocSum; Layer::ALL.len()],
    /// Whole engine call, engine mode: (events, calls).
    engine_total: AllocSum,
    /// The engine's client children, leaf mode: (events, calls).
    engine_children: AllocSum,
    /// Server spans no exchange interval contained.
    pub unlinked: u64,
    kept: Vec<KeptSpan>,
    keep_calls: u64,
    client: Vec<Span>,
    server: Vec<Span>,
}

impl Analysis {
    /// Keep the raw spans of the first `keep_calls` calls for the trace
    /// file; everything else is folded into per-layer samples.
    pub fn new(keep_calls: u64) -> Analysis {
        Analysis {
            samples: vec![Vec::new(); REPORTED.len()],
            allocs: [AllocSum::default(); Layer::ALL.len()],
            engine_total: AllocSum::default(),
            engine_children: AllocSum::default(),
            unlinked: 0,
            kept: Vec::new(),
            keep_calls,
            client: Vec::new(),
            server: Vec::new(),
        }
    }

    /// Fold the spans recorded since the last call into the totals.
    /// Call on the client thread, after each call returns.
    pub fn absorb(&mut self, call: u64) {
        CLIENT.with(|c| std::mem::swap(&mut c.borrow_mut().spans, &mut self.client));
        std::mem::swap(&mut *server_buffer(), &mut self.server);
        // Link each server span to the exchange that contains it.
        let first_server = self.client.len();
        for s in self.server.drain(..) {
            let parent = self.client.iter().position(|c| {
                matches!(c.layer, Layer::Exchange(_)) && c.start <= s.start && s.end <= c.end
            });
            match parent {
                Some(p) => self.client.push(Span {
                    parent: p as u32,
                    ..s
                }),
                None => self.unlinked += 1,
            }
        }
        let spans = &self.client;
        let mut per_call = [None::<u64>; REPORTED.len()];
        let mut add = |slot: usize, ns: u64| *per_call[slot].get_or_insert(0) += ns;
        let mut allocs = [None::<u64>; Layer::ALL.len()];
        for (i, s) in spans.iter().enumerate() {
            let covered = covered_by_children(spans, i as u32, s);
            add(self_slot(s.layer), s.len() - covered);
            if let Some(slot) = inclusive_slot(s.layer) {
                add(slot, s.len());
            }
            if let Some(n) = s.allocs {
                *allocs[s.layer.index()].get_or_insert(0) += n;
            }
        }
        for (slot, ns) in per_call.iter().enumerate() {
            if let Some(ns) = ns {
                self.samples[slot].push((*ns).min(u32::MAX as u64) as u32);
            }
        }
        for (layer, n) in allocs.iter().enumerate() {
            if let Some(n) = n {
                self.allocs[layer].events += n;
                self.allocs[layer].calls += 1;
            }
        }
        let engine = allocs[Layer::Engine.index()];
        if let Some(n) = engine {
            self.engine_total.events += n;
            self.engine_total.calls += 1;
        } else {
            let children: Vec<u64> = Layer::ALL
                .iter()
                .filter(|l| l.is_engine_child())
                .filter_map(|l| allocs[l.index()])
                .collect();
            if !children.is_empty() {
                self.engine_children.events += children.iter().sum::<u64>();
                self.engine_children.calls += 1;
            }
        }
        if call < self.keep_calls {
            self.kept
                .extend(spans.iter().enumerate().map(|(i, s)| KeptSpan {
                    call,
                    index: i as u32,
                    span: *s,
                    server: i >= first_server,
                }));
        }
        self.client.clear();
    }

    /// Per-call samples (ns) of reported slot `slot` of [`REPORTED`].
    pub fn samples(&self, slot: usize) -> &[u32] {
        &self.samples[slot]
    }

    /// Mean allocation events per call for `layer`; for the engine, its
    /// self count (whole-call mean minus its children's mean). `None`
    /// when the layer never ran.
    pub fn allocs(&self, layer: Layer) -> Option<f64> {
        let mean = |a: AllocSum| (a.calls > 0).then(|| a.events as f64 / a.calls as f64);
        if layer == Layer::Engine {
            Some(mean(self.engine_total)? - mean(self.engine_children).unwrap_or(0.0))
        } else {
            mean(self.allocs[layer.index()])
        }
    }

    /// The raw spans kept for the trace file.
    pub fn kept(&self) -> &[KeptSpan] {
        &self.kept
    }
}

/// How much of span `i`'s interval its children cover (children are
/// merged, so overlapping ones count once).
fn covered_by_children(spans: &[Span], i: u32, parent: &Span) -> u64 {
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == i)
        .map(|s| (s.start.max(parent.start), s.end.min(parent.end)))
        .filter(|(a, b)| a < b)
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut reach = 0;
    for (a, b) in kids {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(layer: Layer, start: u64, end: u64, parent: u32) -> Span {
        Span {
            layer,
            start,
            end,
            parent,
            allocs: None,
        }
    }

    #[test]
    fn layer_index_matches_all() {
        for (i, l) in Layer::ALL.iter().enumerate() {
            assert_eq!(l.index(), i, "{l:?}");
        }
        for l in Layer::ALL {
            match inclusive_slot(l) {
                Some(slot) if l != Layer::Call => assert_eq!(REPORTED[slot], l.name()),
                Some(_) => {}
                None => assert_eq!(REPORTED[self_slot(l)], l.name()),
            }
        }
    }

    #[test]
    fn self_time_subtracts_merged_children() {
        let spans = [
            s(Layer::Call, 0, 100, NO_PARENT),
            s(Layer::Build, 5, 20, 0),
            s(Layer::Engine, 20, 95, 0),
            s(Layer::Exchange(Wire::Tcp), 30, 90, 2),
        ];
        assert_eq!(covered_by_children(&spans, 0, &spans[0]), 90);
        assert_eq!(covered_by_children(&spans, 2, &spans[2]), 60);
        assert_eq!(covered_by_children(&spans, 3, &spans[3]), 0);
        let overlapping = [
            s(Layer::Call, 0, 100, NO_PARENT),
            s(Layer::Build, 10, 50, 0),
            s(Layer::Engine, 40, 120, 0),
        ];
        assert_eq!(covered_by_children(&overlapping, 0, &overlapping[0]), 90);
    }
}
