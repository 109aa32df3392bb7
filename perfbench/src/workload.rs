//! The four workloads, and the engine/server pairs ("legs") each one
//! alternates its calls between.
//!
//! Every leg is a production server (`TcpSoapServer` or
//! `HttpSoapServer`, bound on loopback) plus one `SoapEngine` holding a
//! keep-alive connection to it. The untraced run builds legs from the
//! production policies themselves; the traced run wraps the encodings,
//! the client binding and the registered handler (see [`crate::trace`]).

use std::sync::Arc;

use bxsoap::bxdm::AtomicValue;
use bxsoap::soap::{
    BindingPolicy, BxsaEncoding, CallOptions, HttpBinding, HttpSoapServer, ServiceRegistry,
    SoapEngine, SoapEnvelope, SoapResult, SoapService, StreamEncoding, TcpBinding, TcpSoapServer,
    TypedEncoding, XmlEncoding,
};
use bxsoap::transport::{HttpServerConfig, TcpServerConfig};

use crate::fetch::{Dataset, FetchReply, FetchRequest, FetchResult};
use crate::trace::{self, Codec, Layer, Side, TracedBinding, TracedEncoding, Wire};

/// Which operation a workload calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// The LEAD `Verify` operation over the bXDM tree path
    /// (`call_with` on the client, a registry handler on the server).
    Verify,
    /// The benchmark's typed `Fetch` operation (`call_typed_into` on the
    /// client, `register_typed` on the server).
    Fetch,
}

/// How many pairs each call carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pairs {
    /// Seeded, uniform in `0..=max` per call.
    Uniform(usize),
    /// The same count on every call.
    Fixed(usize),
}

/// Engine instantiations per workload; call `i` goes to leg `i % LEGS`.
pub const LEGS: usize = 2;

/// One workload.
#[derive(Debug)]
pub struct Spec {
    /// The name the command line uses.
    pub name: &'static str,
    /// The operation called.
    pub op: Op,
    /// The engine instantiations calls alternate between.
    pub legs: [(Codec, Wire); LEGS],
    /// Pairs per call.
    pub pairs: Pairs,
    /// Calls made during set-up, before anything is timed.
    pub warmup_calls: u64,
}

/// The workloads, by name.
pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "small_rpc",
        op: Op::Verify,
        legs: [(Codec::Bxsa, Wire::Tcp), (Codec::Xml, Wire::Http)],
        pairs: Pairs::Uniform(100),
        warmup_calls: 10_000,
    },
    Spec {
        name: "table1_rpc",
        op: Op::Verify,
        legs: [(Codec::Xml, Wire::Tcp), (Codec::Bxsa, Wire::Http)],
        pairs: Pairs::Fixed(1000),
        warmup_calls: 2000,
    },
    Spec {
        name: "bulk_upload",
        op: Op::Verify,
        legs: [(Codec::Bxsa, Wire::Tcp), (Codec::Bxsa, Wire::Http)],
        pairs: Pairs::Fixed(100_000),
        warmup_calls: 200,
    },
    Spec {
        name: "bulk_download",
        op: Op::Fetch,
        legs: [(Codec::Bxsa, Wire::Tcp), (Codec::Bxsa, Wire::Http)],
        pairs: Pairs::Fixed(100_000),
        warmup_calls: 200,
    },
];

/// Look a workload up by name.
pub fn spec(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|s| s.name == name)
}

/// The seeded sequence of pair counts, cycled call by call.
#[derive(Debug, Clone)]
pub struct CallPlan {
    pairs: Vec<usize>,
}

impl CallPlan {
    /// The plan for `spec` under `seed`.
    pub fn new(spec: &Spec, seed: u64) -> CallPlan {
        let pairs = match spec.pairs {
            Pairs::Fixed(n) => vec![n],
            Pairs::Uniform(max) => {
                let mut state = seed;
                (0..4096)
                    .map(|_| (splitmix64(&mut state) % (max as u64 + 1)) as usize)
                    .collect()
            }
        };
        CallPlan { pairs }
    }

    /// Pairs carried by call `i`.
    pub fn pairs(&self, i: u64) -> usize {
        self.pairs[(i % self.pairs.len() as u64) as usize]
    }

    /// The largest count any call carries (the dataset size).
    pub fn max_pairs(&self) -> usize {
        self.pairs.iter().copied().max().unwrap_or(0)
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One engine instantiation and the server it talks to.
pub trait Leg {
    /// Make one call carrying `pairs` pairs. This is the timed part:
    /// request build plus the engine call.
    fn call(&mut self, pairs: usize) -> SoapResult<()>;
    /// Is the last reply exactly right for `pairs` pairs? Run outside
    /// the timed interval.
    fn check(&self, pairs: usize) -> bool;
    /// Calls that reused the binding's HTTP connection (0 on TCP).
    fn http_reuses(&mut self) -> u64;
    /// Close the client connection, then stop the server.
    fn shutdown(self: Box<Self>);
}

/// The running server of a leg.
enum Server {
    Tcp(TcpSoapServer),
    Http(HttpSoapServer),
}

impl Server {
    fn shutdown(self) {
        match self {
            Server::Tcp(s) => s.shutdown(),
            Server::Http(s) => s.shutdown(),
        }
    }
}

/// Bindings that can say how often they reused their connection.
trait Reuses {
    fn reuses(&self) -> u64;
}

impl Reuses for TcpBinding {
    fn reuses(&self) -> u64 {
        0
    }
}

impl Reuses for HttpBinding {
    fn reuses(&self) -> u64 {
        self.connection_reuses()
    }
}

impl<B: Reuses> Reuses for TracedBinding<B> {
    fn reuses(&self) -> u64 {
        self.inner().reuses()
    }
}

/// `Verify` over the tree path.
struct TreeLeg<E: TypedEncoding, B: BindingPolicy> {
    engine: SoapEngine<E, B>,
    options: CallOptions,
    data: Arc<Dataset>,
    reply: SoapEnvelope,
    server: Server,
}

impl<E: TypedEncoding, B: BindingPolicy + Reuses> Leg for TreeLeg<E, B> {
    fn call(&mut self, pairs: usize) -> SoapResult<()> {
        let data = &self.data;
        let request = trace::span(Layer::Build, || {
            bxsoap::verify_request_envelope(&data.index[..pairs], &data.values[..pairs])
        });
        self.reply = trace::span(Layer::Engine, || {
            self.engine.call_with(request, &self.options)
        })?;
        Ok(())
    }

    fn check(&self, pairs: usize) -> bool {
        self.reply.body_element().is_some_and(|body| {
            body.child_value("ok") == Some(&AtomicValue::Bool(true))
                && body.child_value("count") == Some(&AtomicValue::I64(pairs as i64))
        })
    }

    fn http_reuses(&mut self) -> u64 {
        self.engine.binding().reuses()
    }

    fn shutdown(self: Box<Self>) {
        let TreeLeg { engine, server, .. } = *self;
        drop(engine);
        server.shutdown();
    }
}

/// `Fetch` over the typed path.
struct TypedLeg<E: TypedEncoding, B: BindingPolicy> {
    engine: SoapEngine<E, B>,
    options: CallOptions,
    data: Arc<Dataset>,
    result: FetchResult,
    server: Server,
}

impl<E: TypedEncoding, B: BindingPolicy + Reuses> Leg for TypedLeg<E, B> {
    fn call(&mut self, pairs: usize) -> SoapResult<()> {
        let request = FetchRequest {
            count: pairs as i64,
        };
        // Start empty, so `check` can only pass on what this call decoded.
        self.result.index.clear();
        self.result.values.clear();
        trace::span(Layer::Engine, || {
            self.engine
                .call_typed_into(&request, &mut self.result, &self.options)
        })
    }

    fn check(&self, pairs: usize) -> bool {
        self.data
            .matches_prefix(pairs, &self.result.index, &self.result.values)
    }

    fn http_reuses(&mut self) -> u64 {
        self.engine.binding().reuses()
    }

    fn shutdown(self: Box<Self>) {
        let TypedLeg { engine, server, .. } = *self;
        drop(engine);
        server.shutdown();
    }
}

const LOOPBACK: &str = "127.0.0.1:0";
const SOAP_PATH: &str = "/soap";

/// Bind the server for `op` on `wire` with encoding `codec` and connect
/// an engine to it. `traced` wraps the encodings, binding and handler.
pub fn build_leg(
    op: Op,
    codec: Codec,
    wire: Wire,
    traced: bool,
    data: &Arc<Dataset>,
) -> SoapResult<Box<dyn Leg>> {
    let at = LegAt {
        op,
        wire,
        traced,
        data,
    };
    match (codec, traced) {
        (Codec::Bxsa, false) => at.build(BxsaEncoding::default(), BxsaEncoding::default()),
        (Codec::Xml, false) => at.build(XmlEncoding::default(), XmlEncoding::default()),
        (Codec::Bxsa, true) => at.build(
            TracedEncoding::new(BxsaEncoding::default(), codec, Side::Client),
            TracedEncoding::new(BxsaEncoding::default(), codec, Side::Server),
        ),
        (Codec::Xml, true) => at.build(
            TracedEncoding::new(XmlEncoding::default(), codec, Side::Client),
            TracedEncoding::new(XmlEncoding::default(), codec, Side::Server),
        ),
    }
}

struct LegAt<'a> {
    op: Op,
    wire: Wire,
    traced: bool,
    data: &'a Arc<Dataset>,
}

impl LegAt<'_> {
    fn build<E>(&self, client: E, server: E) -> SoapResult<Box<dyn Leg>>
    where
        E: StreamEncoding + TypedEncoding + Clone + Send + Sync + 'static,
    {
        let service = self.service(server);
        match self.wire {
            Wire::Tcp => {
                let server = TcpSoapServer::bind_service_with(
                    LOOPBACK,
                    TcpServerConfig::default(),
                    service,
                )?;
                let binding = TcpBinding::new(&server.local_addr().to_string());
                Ok(self.connect(client, binding, Server::Tcp(server)))
            }
            Wire::Http => {
                let server = HttpSoapServer::bind_service_with(
                    LOOPBACK,
                    SOAP_PATH,
                    HttpServerConfig::default(),
                    service,
                )?;
                let binding = HttpBinding::new(&server.local_addr().to_string(), SOAP_PATH);
                Ok(self.connect(client, binding, Server::Http(server)))
            }
        }
    }

    fn service<E>(&self, encoding: E) -> SoapService<E>
    where
        E: TypedEncoding + Clone + Send + Sync + 'static,
    {
        match self.op {
            Op::Verify => {
                let mut registry = ServiceRegistry::new();
                if self.traced {
                    // The production handler, reached through its own
                    // registry so the span can wrap it from outside.
                    let mut inner = ServiceRegistry::new();
                    bxsoap::register_verify(&mut inner);
                    registry.register(
                        "Verify",
                        trace::traced_handler(move |req| Ok(inner.dispatch(req))),
                    );
                } else {
                    bxsoap::register_verify(&mut registry);
                }
                SoapService::new(encoding, Arc::new(registry))
            }
            Op::Fetch => {
                let mut service = SoapService::new(encoding, Arc::new(ServiceRegistry::new()));
                let data = Arc::clone(self.data);
                if self.traced {
                    service.register_typed::<FetchRequest, FetchReply, _>(
                        "Fetch",
                        move |req, resp| {
                            trace::server_span(Layer::Handler, || {
                                FetchReply::serve(&data, req, resp)
                            })
                        },
                    );
                } else {
                    service.register_typed::<FetchRequest, FetchReply, _>(
                        "Fetch",
                        move |req, resp| FetchReply::serve(&data, req, resp),
                    );
                }
                service
            }
        }
    }

    fn connect<E, B>(&self, client: E, binding: B, server: Server) -> Box<dyn Leg>
    where
        E: TypedEncoding + 'static,
        B: BindingPolicy + Reuses + 'static,
    {
        if self.traced {
            self.leg(client, TracedBinding::new(binding, self.wire), server)
        } else {
            self.leg(client, binding, server)
        }
    }

    fn leg<E, B>(&self, client: E, binding: B, server: Server) -> Box<dyn Leg>
    where
        E: TypedEncoding + 'static,
        B: BindingPolicy + Reuses + 'static,
    {
        let engine = SoapEngine::new(client, binding);
        let data = Arc::clone(self.data);
        match self.op {
            Op::Verify => Box::new(TreeLeg {
                engine,
                options: CallOptions::new(),
                data,
                reply: SoapEnvelope::default(),
                server,
            }),
            Op::Fetch => Box::new(TypedLeg {
                engine,
                options: CallOptions::new(),
                data,
                result: FetchResult::default(),
                server,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bxsoap::bxdm::Document;
    use bxsoap::soap::{
        DeadlineHeader, EncodingPolicy, FromBxsa, ToBxsa, TypedDecode, TypedRequest, TypedScratch,
    };
    use std::sync::atomic::{AtomicBool, Ordering};

    #[test]
    fn plans_are_seeded_and_bounded() {
        let small = spec("small_rpc").unwrap();
        let a = CallPlan::new(small, 7);
        assert_eq!(a.pairs, CallPlan::new(small, 7).pairs);
        assert_ne!(a.pairs, CallPlan::new(small, 8).pairs);
        assert!(a.pairs.iter().all(|&n| n <= 100));
        assert_eq!(a.max_pairs(), 100);
        let bulk = CallPlan::new(spec("bulk_upload").unwrap(), 7);
        assert_eq!((bulk.pairs(0), bulk.pairs(99)), (100_000, 100_000));
    }

    #[test]
    fn every_leg_answers_correctly_plain_and_traced() {
        for spec in &WORKLOADS {
            let plan = CallPlan::new(spec, 3);
            let data = Arc::new(Dataset::new(plan.max_pairs().min(500), 3));
            for traced in [false, true] {
                for &(codec, wire) in &spec.legs {
                    let mut leg = build_leg(spec.op, codec, wire, traced, &data).unwrap();
                    for pairs in [0, 1, data.len()] {
                        leg.call(pairs).unwrap();
                        assert!(leg.check(pairs), "{} {codec:?}/{wire:?} {pairs}", spec.name);
                        assert!(!leg.check(pairs + 1));
                    }
                    leg.shutdown();
                }
            }
        }
    }

    /// A client encoding that decodes the first typed reply and then
    /// answers `Matched` without writing anything: a skipped decode.
    struct SkipsDecode {
        inner: BxsaEncoding,
        decoded: AtomicBool,
    }

    impl EncodingPolicy for SkipsDecode {
        fn content_type(&self) -> &'static str {
            self.inner.content_type()
        }

        fn name(&self) -> &'static str {
            self.inner.name()
        }

        fn encode_into(&self, doc: &Document, out: &mut Vec<u8>) -> SoapResult<()> {
            self.inner.encode_into(doc, out)
        }

        fn decode_into(&self, bytes: &[u8], doc: &mut Document) -> SoapResult<()> {
            self.inner.decode_into(bytes, doc)
        }
    }

    impl TypedEncoding for SkipsDecode {
        fn encode_typed<M: ToBxsa>(
            &self,
            msg: &M,
            deadline: Option<&DeadlineHeader>,
            scratch: &mut TypedScratch,
            out: &mut Vec<u8>,
        ) -> SoapResult<()> {
            self.inner.encode_typed(msg, deadline, scratch, out)
        }

        fn decode_typed_reply<M: FromBxsa>(
            &self,
            bytes: &[u8],
            out: &mut M,
        ) -> SoapResult<TypedDecode> {
            if self.decoded.swap(true, Ordering::Relaxed) {
                Ok(TypedDecode::Matched)
            } else {
                self.inner.decode_typed_reply(bytes, out)
            }
        }

        fn decode_typed_request<M: FromBxsa>(
            &self,
            bytes: &[u8],
            out: &mut M,
        ) -> SoapResult<TypedRequest> {
            self.inner.decode_typed_request(bytes, out)
        }

        fn peek_operation<'a>(&self, bytes: &'a [u8]) -> Option<&'a str> {
            self.inner.peek_operation(bytes)
        }
    }

    #[test]
    fn a_fetch_reply_left_from_an_earlier_call_fails_the_check() {
        let data = Arc::new(Dataset::new(100, 5));
        let at = LegAt {
            op: Op::Fetch,
            wire: Wire::Tcp,
            traced: false,
            data: &data,
        };
        let server = TcpSoapServer::bind_service_with(
            LOOPBACK,
            TcpServerConfig::default(),
            at.service(BxsaEncoding::default()),
        )
        .unwrap();
        let binding = TcpBinding::new(&server.local_addr().to_string());
        let client = SkipsDecode {
            inner: BxsaEncoding::default(),
            decoded: Default::default(),
        };
        let mut leg = at.leg(client, binding, Server::Tcp(server));
        leg.call(100).unwrap();
        assert!(leg.check(100));
        leg.call(100).unwrap();
        assert!(
            !leg.check(100),
            "the check passed on the previous call's arrays"
        );
        leg.shutdown();
    }
}
