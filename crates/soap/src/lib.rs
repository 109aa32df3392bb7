//! # soap — the generic SOAP engine
//!
//! The paper's central software artifact (§5): a SOAP implementation that
//! is *generic over its encoding and its transport binding*, so that
//! `SOAP over XML/HTTP` and `SOAP over BXSA/TCP` (and the other two
//! combinations) are just different instantiations of one engine:
//!
//! ```text
//! C++ (paper):  SoapEngine<XMLEncoding, HttpBinding>  soapXML;
//!               SoapEngine<BXSAEncoding, TCPBinding>  soapBin;
//! Rust (here):  SoapEngine<XmlEncoding, HttpBinding>
//!               SoapEngine<BxsaEncoding, TcpBinding>
//! ```
//!
//! Rust generics play the role of C++ templates: policies bind at compile
//! time, the engine monomorphizes per combination, cross-policy inlining
//! is preserved, and adding a policy is adding a type parameter — the
//! "policy-based design" of Alexandrescu that §5 adopts.
//!
//! The SOAP message itself is modeled in **bXDM** (not text): the engine
//! builds a `soapenv:Envelope` element tree, hands it to the
//! [`EncodingPolicy`] to serialize, and hands the bytes to the
//! [`BindingPolicy`] to move. Everything above the envelope — services,
//! WS-Addressing, eventing — is encoding-agnostic, which is the paper's
//! "intact web service protocol stack" argument.
//!
//! ```no_run
//! use soap::{CallOptions, SoapEngine, SoapEnvelope, XmlEncoding, HttpBinding};
//! use bxdm::{Element, AtomicValue};
//!
//! let mut engine = SoapEngine::new(
//!     XmlEncoding::default(),
//!     HttpBinding::new("127.0.0.1:8080", "/soap"),
//! );
//! let request = SoapEnvelope::with_body(
//!     Element::component("m:Ping")
//!         .with_namespace("m", "http://example.org/ping")
//!         .with_child(Element::leaf("m:seq", AtomicValue::I32(1))),
//! );
//! let response = engine.call_with(request, &CallOptions::new()).unwrap();
//! assert!(response.body_element().is_some());
//! ```

#![forbid(unsafe_code)]

pub mod anyengine;
pub mod binding;
pub mod encoding;
pub mod engine;
pub mod envelope;
pub mod error;
pub mod fault;
pub mod intermediary;
pub mod metrics;
pub mod server;
pub mod service;
pub mod streaming;
pub mod typed;

pub use anyengine::{AnyEngine, WireConfig, WireEncoding, WireTransport};
pub use binding::{BindingPolicy, FaultingBinding, HttpBinding, LoopbackBinding, TcpBinding};
pub use encoding::{BxsaEncoding, EncodingPolicy, XmlEncoding};
pub use engine::{CallOptions, NoSecurity, SecurityPolicy, SoapEngine};
pub use envelope::{
    DeadlineHeader, SoapEnvelope, DEADLINE_HEADER_LOCAL, DEFAULT_HOPS, EXPIRED_RETRY_AFTER,
    SOAP_ENV_PREFIX, SOAP_ENV_URI,
};
pub use error::{SoapError, SoapResult};
pub use fault::{FaultCode, SoapFault};
pub use intermediary::Intermediary;
pub use server::{HttpSoapServer, TcpSoapServer};
pub use service::{
    fault_for_error, DecodeScratch, HandleOutcome, ReplyTarget, ServiceHandler, ServiceRegistry,
    SoapService,
};
pub use streaming::{PartScratch, StreamEncoding, StreamOp};
/// The one cap on a streamed part, owned by the transport that enforces
/// it per chunk; every streamed send and receive in this crate checks it.
pub use transport::MAX_PART_LEN;
pub use typed::{
    BxsaView, FromBxsa, ToBxsa, TypedDecode, TypedEncoding, TypedRequest, TypedScratch,
    ENVELOPE_DECLS,
};

// Re-exported so `soap` users reach the resilience vocabulary without a
// direct `transport` dependency.
pub use transport::{
    BreakerConfig, BreakerHandle, BreakerRegistry, BreakerState, Deadline, RetryPolicy, Timeouts,
};

/// The four canonical engine instantiations (paper §5: "obviously we can
/// have two more combinations").
pub type XmlHttpEngine = SoapEngine<XmlEncoding, HttpBinding>;
/// BXSA over raw TCP — the paper's fast path.
pub type BxsaTcpEngine = SoapEngine<BxsaEncoding, TcpBinding>;
/// Textual XML over raw TCP.
pub type XmlTcpEngine = SoapEngine<XmlEncoding, TcpBinding>;
/// BXSA over HTTP.
pub type BxsaHttpEngine = SoapEngine<BxsaEncoding, HttpBinding>;
