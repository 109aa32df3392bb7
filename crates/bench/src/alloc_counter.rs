//! A counting global allocator for asserting allocation-free hot paths.
//!
//! The PR's buffer-reuse work claims *zero* steady-state heap traffic on
//! the encode path; this module turns that claim into a checked
//! invariant instead of a code-review judgement. The counter wraps the
//! system allocator and counts allocation events (alloc, alloc_zeroed,
//! realloc — frees are not counted) and the bytes they request on
//! threads that arm it, so the rest of the process pays one thread-local
//! load per allocation and nothing else.
//!
//! Gated behind the off-by-default `alloc-counter` feature so the
//! benchmark binaries keep the stock allocator (even a disarmed counter
//! costs a thread-local load per allocation event, which is measurable
//! on allocation-heavy paths like textual decode); run
//! `cargo test -p bench --features alloc-counter` to check the
//! invariant.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator, plus a per-thread opt-in allocation counter.
pub struct CountingAlloc;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static COUNT: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static SHARED: Cell<bool> = const { Cell::new(false) };
}

/// Totals of the threads armed with [`arm_shared`].
static SHARED_COUNT: AtomicU64 = AtomicU64::new(0);
static SHARED_BYTES: AtomicU64 = AtomicU64::new(0);

/// Count one allocation event of `size` bytes (a realloc counts its
/// whole new size).
#[inline]
fn bump(size: usize) {
    ARMED.with(|armed| {
        if armed.get() {
            COUNT.with(|c| c.set(c.get() + 1));
            BYTES.with(|b| b.set(b.get() + size as u64));
        }
    });
    SHARED.with(|shared| {
        if shared.get() {
            SHARED_COUNT.fetch_add(1, Ordering::Relaxed);
            SHARED_BYTES.fetch_add(size as u64, Ordering::Relaxed);
        }
    });
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// What an armed stretch of code allocated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Allocs {
    /// Allocation events (alloc, alloc_zeroed, realloc).
    pub events: u64,
    /// Bytes those events requested.
    pub bytes: u64,
}

/// Run `f` with the counter armed on this thread; return its result and
/// the number of allocation events it performed.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let (result, allocs) = measure_allocs(f);
    (result, allocs.events)
}

/// [`measure`], also reporting the bytes allocated.
pub fn measure_allocs<R>(f: impl FnOnce() -> R) -> (R, Allocs) {
    COUNT.with(|c| c.set(0));
    BYTES.with(|b| b.set(0));
    ARMED.with(|a| a.set(true));
    let result = f();
    ARMED.with(|a| a.set(false));
    let allocs = Allocs {
        events: COUNT.with(|c| c.get()),
        bytes: BYTES.with(|b| b.get()),
    };
    (result, allocs)
}

/// Count every allocation this thread makes from now on into process-wide
/// totals, read with [`take_shared`] from any thread — the way to gate
/// code that runs on a thread the test does not drive, such as a server
/// worker.
pub fn arm_shared() {
    SHARED.with(|shared| shared.set(true));
}

/// What the [`arm_shared`] threads allocated since the last call.
///
/// The totals are process-wide: two tests that read them must not run at
/// the same time (hold [`shared_counts`]).
pub fn take_shared() -> Allocs {
    Allocs {
        events: SHARED_COUNT.swap(0, Ordering::Relaxed),
        bytes: SHARED_BYTES.swap(0, Ordering::Relaxed),
    }
}

/// Serializes the tests that read the [`take_shared`] totals.
pub fn shared_counts() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_sees_allocations() {
        let ((), n) = measure(|| {
            let v: Vec<u64> = Vec::with_capacity(8);
            drop(v);
        });
        assert!(n >= 1, "a fresh Vec must register");
        let ((), n) = measure(|| {});
        assert_eq!(n, 0);
        let ((), allocs) = measure_allocs(|| {
            let mut v: Vec<u8> = Vec::with_capacity(1000);
            v.reserve_exact(3000);
        });
        assert_eq!(
            allocs,
            Allocs {
                events: 2,
                bytes: 4000
            }
        );
    }

    /// Per-call byte budget for a bulk tree call once its buffers are
    /// warm. The 1.2 MB payload is handed between layers by move and by
    /// borrow, so what a call may still allocate is envelope skeletons,
    /// the reply and the entry lists — a few KiB. One copy of the payload
    /// would blow the budget twenty times over.
    const BULK_CALL_BYTE_BUDGET: u64 = 64 * 1024;

    /// A `SoapService` with the LEAD `Verify` operation.
    fn verify_service<E: soap::EncodingPolicy>(encoding: E) -> soap::SoapService<E> {
        let mut registry = soap::ServiceRegistry::new();
        bxsoap::register_verify(&mut registry);
        soap::SoapService::new(encoding, std::sync::Arc::new(registry))
    }

    /// Serving a 100k-pair tree Verify from warm scratch lends the
    /// decoded payload to the handler instead of copying it out of the
    /// decode target: the call allocates far less than the payload.
    fn tree_service_call_stays_under_budget<E: soap::EncodingPolicy>(encoding: E) {
        let (index, values) = bxsoap::lead_dataset(100_000, 42);
        let request = encoding
            .encode(&bxsoap::verify_request_envelope(&index, &values).into_document())
            .unwrap();
        let service = verify_service(encoding);
        let mut scratch = soap::DecodeScratch::default();
        let mut out = Vec::new();
        for _ in 0..3 {
            assert!(!service.handle(&mut scratch, &request, &mut out).is_fault);
        }
        let (outcome, allocs) =
            measure_allocs(|| service.handle(&mut scratch, &request, &mut out));
        assert!(!outcome.is_fault);
        assert!(
            allocs.bytes < BULK_CALL_BYTE_BUDGET,
            "{} tree service call allocated {allocs:?} in steady state",
            service.encoding().name()
        );
    }

    #[test]
    fn bulk_tree_service_call_does_not_copy_the_payload() {
        tree_service_call_stays_under_budget(soap::BxsaEncoding::default());
        tree_service_call_stays_under_budget(soap::XmlEncoding::default());
    }

    /// A warm 100k-pair BXSA Verify through `SoapService::handle` with
    /// `register_verify` takes the view path: the peek, the in-place
    /// read of both arrays, the handler and the typed reply encode
    /// allocate nothing at all. The request sits at an 8-aligned address,
    /// as in a connection's receive buffer, so neither array is copied.
    #[test]
    fn bulk_view_verify_is_allocation_free() {
        use soap::EncodingPolicy;

        let (index, values) = bxsoap::lead_dataset(100_000, 42);
        let encoding = soap::BxsaEncoding::native_order();
        let encoded = encoding
            .encode(&bxsoap::verify_request_envelope(&index, &values).into_document())
            .unwrap();
        let mut buf = Vec::with_capacity(encoded.len() + 8);
        let pad = (8 - buf.as_ptr() as usize % 8) % 8;
        buf.resize(pad, 0);
        buf.extend_from_slice(&encoded);
        let request = &buf[pad..];
        let service = verify_service(encoding.clone());
        let mut scratch = soap::DecodeScratch::default();
        let mut out = Vec::new();
        for _ in 0..3 {
            assert!(!service.handle(&mut scratch, request, &mut out).is_fault);
        }
        let (outcome, n) = measure(|| service.handle(&mut scratch, request, &mut out));
        assert!(!outcome.is_fault);
        assert_eq!(n, 0, "a warm bulk view Verify allocated {n}x");
        let reply = soap::SoapEnvelope::from_document(&encoding.decode(&out).unwrap()).unwrap();
        let body = reply.body_element().unwrap();
        assert_eq!(body.child_value("ok"), Some(&bxdm::AtomicValue::Bool(true)));
        assert_eq!(
            body.child_value("count"),
            Some(&bxdm::AtomicValue::I64(100_000))
        );
    }

    /// A warm engine's `call_with` moves the caller's 100k-pair envelope
    /// into the document it encodes, and the loopback server lends the
    /// decoded request to its handler: client and server together
    /// allocate far less than the payload per call.
    #[test]
    fn bulk_call_with_does_not_copy_the_payload() {
        use soap::{BxsaEncoding, CallOptions, DecodeScratch, LoopbackBinding, SoapEngine};

        let (index, values) = bxsoap::lead_dataset(100_000, 42);
        let service = verify_service(BxsaEncoding::default());
        let mut scratch = DecodeScratch::default();
        let mut engine = SoapEngine::new(
            BxsaEncoding::default(),
            LoopbackBinding::new(move |request: &[u8]| {
                let mut reply = Vec::new();
                service.handle(&mut scratch, request, &mut reply);
                reply
            }),
        );
        let options = CallOptions::new();
        for _ in 0..3 {
            let request = bxsoap::verify_request_envelope(&index, &values);
            engine.call_with(request, &options).unwrap();
        }
        let request = bxsoap::verify_request_envelope(&index, &values);
        let (reply, allocs) = measure_allocs(|| engine.call_with(request, &options));
        let reply = reply.unwrap();
        assert_eq!(
            reply.body_element().unwrap().child_value("ok"),
            Some(&bxdm::AtomicValue::Bool(true))
        );
        assert!(
            allocs.bytes < BULK_CALL_BYTE_BUDGET,
            "call_with allocated {allocs:?} in steady state"
        );
    }

    /// A warm 100k-pair tree Verify through the live `HttpSoapServer`:
    /// the request body lands in the connection's high-water buffer and
    /// the reply is written from its reply buffer, so the worker's whole
    /// request — read, head parse, decode, handler, encode, write —
    /// allocates far less than the payload, and so does the client.
    #[test]
    fn bulk_http_server_call_does_not_copy_the_payload() {
        let _shared = shared_counts();
        use soap::{BxsaEncoding, CallOptions, HttpBinding, HttpSoapServer, SoapEngine};
        use std::sync::Arc;

        let (index, values) = bxsoap::lead_dataset(100_000, 42);
        let mut inner = soap::ServiceRegistry::new();
        bxsoap::register_verify(&mut inner);
        let mut registry = soap::ServiceRegistry::new();
        // The handler runs on the connection's worker: arm it there.
        registry.register("Verify", move |request| {
            arm_shared();
            Ok(inner.dispatch(request))
        });
        let service = soap::SoapService::new(BxsaEncoding::default(), Arc::new(registry));
        let server = HttpSoapServer::bind_service_with(
            "127.0.0.1:0",
            "/soap",
            transport::HttpServerConfig::default(),
            service,
        )
        .unwrap();
        let binding = HttpBinding::new(&server.local_addr().to_string(), "/soap");
        let mut engine = SoapEngine::new(BxsaEncoding::default(), binding);
        let options = CallOptions::new();
        for _ in 0..3 {
            let request = bxsoap::verify_request_envelope(&index, &values);
            engine.call_with(request, &options).unwrap();
        }
        let request = bxsoap::verify_request_envelope(&index, &values);
        take_shared();
        let (reply, client) = measure_allocs(|| engine.call_with(request, &options));
        let server_side = take_shared();
        assert_eq!(
            reply.unwrap().body_element().unwrap().child_value("ok"),
            Some(&bxdm::AtomicValue::Bool(true))
        );
        assert!(server_side.events > 0, "the worker's handler allocates: it was armed");
        assert!(
            server_side.bytes < BULK_CALL_BYTE_BUDGET,
            "the HTTP server allocated {server_side:?} for a warm bulk call"
        );
        assert!(
            client.bytes < BULK_CALL_BYTE_BUDGET,
            "call_with over HTTP allocated {client:?} in steady state"
        );
        server.shutdown();
    }

    /// What one warm small `call_with` allocates on the client thread.
    fn warm_small_call_allocs<E, B>(encoding: E, binding: B) -> u64
    where
        E: soap::EncodingPolicy,
        B: soap::BindingPolicy,
    {
        let (index, values) = bxsoap::lead_dataset(50, 7);
        let mut engine = soap::SoapEngine::new(encoding, binding);
        let options = soap::CallOptions::new();
        for _ in 0..3 {
            let request = bxsoap::verify_request_envelope(&index, &values);
            engine.call_with(request, &options).unwrap();
        }
        let request = bxsoap::verify_request_envelope(&index, &values);
        let (reply, n) = measure(|| engine.call_with(request, &options));
        reply.unwrap();
        n
    }

    /// The HTTP leg's per-exchange fixed costs are gone from the client:
    /// a warm small Verify over `HttpBinding` allocates no more than the
    /// same call over `TcpBinding` (the request head is written from a
    /// reused buffer, the response head parsed into reused strings).
    #[test]
    fn warm_http_call_allocates_no_more_than_tcp() {
        use soap::{
            BxsaEncoding, HttpBinding, HttpSoapServer, TcpBinding, TcpSoapServer, XmlEncoding,
        };

        let registry = || {
            let mut registry = soap::ServiceRegistry::new();
            bxsoap::register_verify(&mut registry);
            std::sync::Arc::new(registry)
        };
        fn both<E>(encoding: E, registry: std::sync::Arc<soap::ServiceRegistry>)
        where
            E: soap::StreamEncoding + Clone + Send + Sync + 'static,
        {
            let tcp = TcpSoapServer::bind("127.0.0.1:0", encoding.clone(), registry.clone()).unwrap();
            let http =
                HttpSoapServer::bind("127.0.0.1:0", "/soap", encoding.clone(), registry).unwrap();
            let over_tcp = warm_small_call_allocs(
                encoding.clone(),
                TcpBinding::new(&tcp.local_addr().to_string()),
            );
            let over_http = warm_small_call_allocs(
                encoding.clone(),
                HttpBinding::new(&http.local_addr().to_string(), "/soap"),
            );
            assert!(
                over_http <= over_tcp,
                "{}: a warm call allocated {over_http}x over HTTP, {over_tcp}x over TCP",
                encoding.name()
            );
            tcp.shutdown();
            http.shutdown();
        }
        both(XmlEncoding::default(), registry());
        both(BxsaEncoding::default(), registry());
    }

    /// The PR's acceptance invariant: after warmup, encoding the paper's
    /// 1000-pair verification model into reused buffers performs **zero**
    /// heap allocations — on the binary path *and* the textual-XML path
    /// (whose per-item float formatting used to dominate, §6.2).
    #[test]
    fn steady_state_encode_is_allocation_free() {
        let (index, values) = bxsoap::lead_dataset(1000, 42);
        let doc = bxsoap::verify_request_envelope(&index, &values).to_document();

        // BXSA binary encode into a reused byte buffer.
        let mut buf = Vec::new();
        for _ in 0..3 {
            bxsa::encode_into(&doc, &mut buf).unwrap();
        }
        let (result, n) = measure(|| bxsa::encode_into(&doc, &mut buf));
        result.unwrap();
        assert_eq!(n, 0, "bxsa::encode_into allocated {n}x in steady state");

        // Textual XML encode into a reused String.
        let opts = xmltext::XmlWriteOptions::default();
        let mut text = String::new();
        for _ in 0..3 {
            let Ok(()) = xmltext::write_into(&doc, &opts, &mut text);
        }
        let ((), n) = measure(|| {
            let Ok(()) = xmltext::write_into(&doc, &opts, &mut text);
        });
        assert_eq!(n, 0, "xmltext::write_into allocated {n}x in steady state");
    }

    /// This PR's acceptance invariant, the decode mirror: after warmup,
    /// decoding the same wire message into a reused document — node
    /// slots overwritten in place, strings and array buffers refilled —
    /// performs **zero** heap allocations, on the binary pull-decode
    /// path *and* the streaming textual-XML path.
    #[test]
    fn steady_state_decode_is_allocation_free() {
        let (index, values) = bxsoap::lead_dataset(1000, 42);
        let doc = bxsoap::verify_request_envelope(&index, &values).to_document();

        // BXSA pull-decode into a reused document.
        let bytes = bxsa::encode(&doc).unwrap();
        let mut reused = bxdm::Document::new();
        for _ in 0..3 {
            bxsa::decode_into(&bytes, &mut reused).unwrap();
        }
        let (result, n) = measure(|| bxsa::decode_into(&bytes, &mut reused));
        result.unwrap();
        assert_eq!(n, 0, "bxsa::decode_into allocated {n}x in steady state");
        assert_eq!(reused, doc, "reuse must not change the decoded value");

        // Streaming textual-XML decode into a reused document.
        let Ok(text) = xmltext::to_string(&doc);
        let mut reused = bxdm::Document::new();
        for _ in 0..3 {
            xmltext::parse_into(&text, &mut reused).unwrap();
        }
        let (result, n) = measure(|| xmltext::parse_into(&text, &mut reused));
        result.unwrap();
        assert_eq!(n, 0, "xmltext::parse_into allocated {n}x in steady state");
        assert_eq!(reused, doc, "reuse must not change the parsed value");
    }

    /// The typed fast path's acceptance invariant: after warmup, a typed
    /// encode of the paper's 1000-pair verification model — struct fields
    /// straight to wire bytes, no element tree — performs **zero** heap
    /// allocations on both encodings, and so does the typed decode of the
    /// reply into a reused struct (clear-and-refill field buffers).
    #[test]
    fn typed_steady_state_is_allocation_free() {
        use soap::{BxsaEncoding, TypedDecode, TypedEncoding, TypedScratch, XmlEncoding};

        let (index, values) = bxsoap::lead_dataset(1000, 42);
        let request = bxsoap::VerifyRequest { index, values };

        let bxsa_enc = BxsaEncoding::default();
        let xml_enc = XmlEncoding::default();
        let mut scratch = TypedScratch::default();

        // Typed encode into a reused wire buffer, both encodings.
        let mut bxsa_wire = Vec::new();
        let mut xml_wire = Vec::new();
        for _ in 0..3 {
            bxsa_enc
                .encode_typed(&request, None, &mut scratch, &mut bxsa_wire)
                .unwrap();
            xml_enc
                .encode_typed(&request, None, &mut scratch, &mut xml_wire)
                .unwrap();
        }
        let (result, n) = measure(|| {
            bxsa_enc.encode_typed(&request, None, &mut scratch, &mut bxsa_wire)
        });
        result.unwrap();
        assert_eq!(n, 0, "typed BXSA encode allocated {n}x in steady state");
        let (result, n) =
            measure(|| xml_enc.encode_typed(&request, None, &mut scratch, &mut xml_wire));
        result.unwrap();
        assert_eq!(n, 0, "typed XML encode allocated {n}x in steady state");

        // Typed decode into a reused struct, both encodings.
        let mut reused = bxsoap::VerifyRequest::default();
        for _ in 0..3 {
            bxsa_enc.decode_typed_reply(&bxsa_wire, &mut reused).unwrap();
            xml_enc.decode_typed_reply(&xml_wire, &mut reused).unwrap();
        }
        let (result, n) = measure(|| bxsa_enc.decode_typed_reply(&bxsa_wire, &mut reused));
        assert_eq!(result.unwrap(), TypedDecode::Matched);
        assert_eq!(n, 0, "typed BXSA decode allocated {n}x in steady state");
        assert_eq!(reused.values, request.values);
        let (result, n) = measure(|| xml_enc.decode_typed_reply(&xml_wire, &mut reused));
        assert_eq!(result.unwrap(), TypedDecode::Matched);
        assert_eq!(n, 0, "typed XML decode allocated {n}x in steady state");
        assert_eq!(reused.index, request.index);
    }

    /// A warm 100k-pair typed reply on a live framed-TCP server goes out
    /// gathered — both arrays straight from the response struct to the
    /// socket — and the server's whole request (read, typed decode,
    /// handler, both encode passes, the writes) allocates nothing.
    #[test]
    fn gathered_typed_reply_is_allocation_free() {
        let _shared = shared_counts();
        use soap::BindingPolicy as _;
        use soap::{BxsaEncoding, TcpSoapServer, TypedEncoding, TypedScratch};

        const PAIRS: usize = 100_000;
        let (index, values) = bxsoap::lead_dataset(PAIRS, 42);
        let encoding = BxsaEncoding::native_order();
        let mut service = soap::SoapService::new(
            encoding.clone(),
            std::sync::Arc::new(soap::ServiceRegistry::new()),
        );
        // Ask with a VerifyResponse naming a count, answer with that many
        // pairs as a Verify body; the handler runs on the worker: arm it.
        service.register_typed::<bxsoap::VerifyResponse, bxsoap::VerifyRequest, _>(
            "VerifyResponse",
            move |req, resp| {
                arm_shared();
                let n = req.count as usize;
                resp.index.clear();
                resp.index.extend_from_slice(&index[..n]);
                resp.values.clear();
                resp.values.extend_from_slice(&values[..n]);
                Ok(())
            },
        );
        let server = TcpSoapServer::bind_service_with(
            "127.0.0.1:0",
            transport::TcpServerConfig::default(),
            service,
        )
        .unwrap();
        let ask = bxsoap::VerifyResponse {
            ok: true,
            count: PAIRS as i64,
        };
        let mut request = Vec::new();
        encoding
            .encode_typed(&ask, None, &mut TypedScratch::default(), &mut request)
            .unwrap();
        let metrics = transport::metrics::tcp_server();
        // The reply leaves while the handler runs; the worker counts it
        // once the handler returns, which ends a measurement.
        let counted = |n: u64| {
            let until = std::time::Instant::now() + std::time::Duration::from_secs(5);
            while metrics.gathered_replies.get() < n {
                assert!(std::time::Instant::now() < until, "the replies were gathered");
                std::thread::yield_now();
            }
        };
        let mut binding = soap::TcpBinding::new(&server.local_addr().to_string());
        let mut reply = Vec::new();
        let warm = metrics.gathered_replies.get() + 3;
        for _ in 0..3 {
            binding
                .exchange_into(&request, "application/bxsa", &mut reply)
                .unwrap();
        }
        counted(warm);
        // A round whose reply the socket did not take whole copies the
        // rest into a spill buffer that may still have to grow: that is
        // the kernel's socket sizing, not the gather. Measure again then.
        for _ in 0..10 {
            let (gathered, spilled) = (
                metrics.gathered_replies.get(),
                metrics.gather_spilled_bytes.get(),
            );
            take_shared();
            binding
                .exchange_into(&request, "application/bxsa", &mut reply)
                .unwrap();
            counted(gathered + 1);
            let server_side = take_shared();
            assert!(reply.len() > PAIRS * 12, "the whole reply arrived");
            if metrics.gather_spilled_bytes.get() != spilled {
                continue;
            }
            assert_eq!(
                server_side.events, 0,
                "a warm gathered typed reply allocated {server_side:?} on the server"
            );
            server.shutdown();
            return;
        }
        panic!("the socket never took a whole 1.2 MB reply at once in 10 rounds");
    }

    /// A warm 100k-pair typed call whose reply's arrays are read from
    /// the socket into typed slots and exchanged with the caller's
    /// (cleared) `Vec`s allocates nothing on the client, over framed TCP
    /// and over HTTP: the caller's old buffers become the next call's
    /// slots.
    #[test]
    fn scattered_typed_reply_is_allocation_free() {
        use soap::{BxsaEncoding, CallOptions, SoapEngine};

        const PAIRS: usize = 100_000;
        fn service() -> soap::SoapService<BxsaEncoding> {
            let (index, values) = bxsoap::lead_dataset(PAIRS, 7);
            let mut service = soap::SoapService::new(
                BxsaEncoding::native_order(),
                std::sync::Arc::new(soap::ServiceRegistry::new()),
            );
            service.register_typed::<bxsoap::VerifyResponse, bxsoap::VerifyRequest, _>(
                "VerifyResponse",
                move |req, resp| {
                    let n = (req.count as usize).min(PAIRS);
                    resp.index.clear();
                    resp.index.extend_from_slice(&index[..n]);
                    resp.values.clear();
                    resp.values.extend_from_slice(&values[..n]);
                    Ok(())
                },
            );
            service
        }
        fn warm_call_allocs(binding: impl soap::BindingPolicy) -> Allocs {
            let mut engine = SoapEngine::new(BxsaEncoding::native_order(), binding);
            let ask = bxsoap::VerifyResponse {
                ok: true,
                count: PAIRS as i64,
            };
            let mut got = bxsoap::VerifyRequest::default();
            let mut call = |got: &mut bxsoap::VerifyRequest| {
                got.index.clear();
                got.values.clear();
                engine
                    .call_typed_into(&ask, got, &CallOptions::new())
                    .unwrap();
            };
            call(&mut got);
            call(&mut got);
            let scattered = soap::metrics::engine().scattered_bytes.get();
            let ((), allocs) = measure_allocs(|| call(&mut got));
            assert!(
                soap::metrics::engine().scattered_bytes.get() - scattered >= (PAIRS * 12) as u64,
                "both arrays were placed"
            );
            assert_eq!((got.index.len(), got.values.len()), (PAIRS, PAIRS));
            allocs
        }
        let tcp = soap::TcpSoapServer::bind_service_with(
            "127.0.0.1:0",
            transport::TcpServerConfig::default(),
            service(),
        )
        .unwrap();
        let allocs = warm_call_allocs(soap::TcpBinding::new(&tcp.local_addr().to_string()));
        println!("scattered typed reply over TCP: {allocs:?}");
        assert_eq!(
            allocs.events, 0,
            "a warm placed TCP reply allocated {allocs:?}"
        );
        tcp.shutdown();
        let http = soap::HttpSoapServer::bind_service_with(
            "127.0.0.1:0",
            "/soap",
            transport::HttpServerConfig::default(),
            service(),
        )
        .unwrap();
        let allocs = warm_call_allocs(soap::HttpBinding::new(
            &http.local_addr().to_string(),
            "/soap",
        ));
        println!("scattered typed reply over HTTP: {allocs:?}");
        assert_eq!(
            allocs.events, 0,
            "a warm placed HTTP reply allocated {allocs:?}"
        );
        http.shutdown();
    }

    /// The observability layer's discipline: once a metric is registered,
    /// updating it — counters on every message, gauges on every breaker
    /// transition, histogram observations on every call — is pure atomic
    /// arithmetic. Zero heap traffic, so instrumentation can sit directly
    /// on the paths the two gates above protect.
    #[test]
    fn metrics_instrumentation_is_allocation_free() {
        use std::time::Duration;

        static COUNTER: obs::Counter = obs::Counter::new();
        static GAUGE: obs::Gauge = obs::Gauge::new();
        static HISTOGRAM: obs::Histogram = obs::Histogram::new();
        // Registration may allocate (names, label strings) — that is
        // paid once, before the steady state being measured.
        let registry = obs::global();
        registry.register_counter("bench_events_total", "", &[], &COUNTER);
        registry.register_gauge("bench_level", "", &[], &GAUGE);
        registry.register_histogram("bench_latency_nanoseconds", "", &[], &HISTOGRAM);

        let ((), n) = measure(|| {
            for i in 0..1000u64 {
                COUNTER.inc();
                COUNTER.add(2);
                GAUGE.set(i as f64);
                GAUGE.add(0.5);
                HISTOGRAM.observe(i * 17);
                HISTOGRAM.observe_duration(Duration::from_micros(i));
            }
        });
        assert_eq!(n, 0, "metric updates allocated {n}x in steady state");
    }

    /// The overload-shed discipline: turning a request away must cost
    /// almost nothing, or shedding itself becomes the overload. The
    /// framed path is zero-alloc by construction (the fault payload is
    /// pre-encoded at bind and memcpy'd into the connection's reused
    /// response buffer); the HTTP path builds and serializes the canned
    /// 503 per shed — bounded here so it can never grow proportional to
    /// the request or regress into real per-shed work.
    #[test]
    fn shed_response_allocation_is_bounded() {
        use std::time::Duration;

        let mut wire = Vec::with_capacity(512);
        for _ in 0..3 {
            wire.clear();
            transport::HttpResponse::service_unavailable(Duration::from_secs(1))
                .write_to_with(&mut wire, false)
                .unwrap();
        }
        let ((), n) = measure(|| {
            wire.clear();
            transport::HttpResponse::service_unavailable(Duration::from_secs(1))
                .write_to_with(&mut wire, false)
                .unwrap();
        });
        assert!(
            n <= 16,
            "building + serializing the shed 503 allocated {n}x; the shed path must stay cheap"
        );
    }
}
