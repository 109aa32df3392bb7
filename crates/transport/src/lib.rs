//! # transport — real byte-moving substrates
//!
//! The generic SOAP engine's *binding policies* need actual transports.
//! This crate provides the two the paper uses, built over `std::net`:
//!
//! * **Framed TCP** ([`framed`]) — the `BXSA/TCP` binding "just dumps the
//!   serialization directly to a TCP connection" (§5.3); a 4-byte length
//!   prefix delimits messages.
//! * **HTTP/1.1** ([`http`]) — a from-scratch client and an evented
//!   keep-alive server sufficient for SOAP-over-HTTP POSTs and for the
//!   separated scheme's file staging ([`fileserver`], the Apache
//!   stand-in).
//!
//! Both servers are bound one way, through [`ServerBuilder`], and run as
//! one type, [`Server`], on the epoll runtime in [`reactor`].
//!
//! Everything here moves real bytes over real (loopback) sockets; the
//! simulated-time models live in the `netsim` crate instead.
//!
//! The resilience layer threads through all of it: [`deadline`] turns an
//! absolute time budget into per-phase socket timeouts, [`retry`] decides
//! when a failed exchange may be replayed, [`breaker`] shares endpoint
//! health across engines so persistent outages fail fast, and [`faulty`]
//! wraps any stream in a deterministic fault injector for torture
//! testing.

pub mod breaker;
pub mod builder;
pub mod deadline;
pub mod error;
pub mod faulty;
pub mod fileserver;
pub mod framed;
pub mod gather;
pub mod http;
pub mod iovec;
pub mod metrics;
pub mod reactor;
pub mod retry;
pub mod tcpserver;

pub use breaker::{
    BreakerConfig, BreakerHandle, BreakerRegistry, BreakerState, CircuitBreaker, Permit,
};
pub use builder::ServerBuilder;
pub use deadline::{Deadline, Timeouts};
pub use error::{TransportError, TransportResult, HTTP_STATUS_BODY_PREFIX};
pub use faulty::{FaultAction, FaultInjector, FaultProfile, FaultingTransport, SharedInjector};
pub use fileserver::FileServer;
pub use framed::{BodySink, FramedStream, MAX_FRAME_LEN};
pub use gather::GatherSink;
pub use http::client::{
    http_get, http_post, send_request, send_request_with, send_request_with_into, HttpConnection,
};
pub use http::request::HttpRequest;
pub use http::response::HttpResponse;
pub use http::server::{metrics_response, HttpServerConfig, Reply, RequestHead};
pub use http::streaming::{StreamFactory, StreamReply, StreamSession, MAX_PART_LEN};
pub use reactor::server::Server;
pub use reactor::{Event, Events, Interest, OverloadConfig, Poller, Waker};
pub use retry::{RetryPolicy, RetrySchedule};
pub use tcpserver::{ReplyControl, TcpServerConfig};
