//! Runtime-selected engines.
//!
//! The generic engine binds its policies at compile time; a client that
//! discovers a service's encoding/binding at *runtime* (e.g. from a WSDL
//! document, paper §2: "Users are free to specify the alternative message
//! encoding/binding scheme in the WSDL file") needs one value type that
//! can hold any of the four instantiations. [`AnyEngine`] is that enum —
//! one `match` at the call boundary, statically-dispatched engines
//! inside.

use crate::binding::{HttpBinding, TcpBinding};
use crate::encoding::{BxsaEncoding, XmlEncoding};
use crate::engine::{CallOptions, SoapEngine};
use crate::envelope::SoapEnvelope;
use crate::error::{SoapError, SoapResult};
use crate::typed::{FromBxsa, ToBxsa};

/// A wire configuration: which encoding and which transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WireConfig {
    /// Message encoding.
    pub encoding: WireEncoding,
    /// Transport binding.
    pub transport: WireTransport,
}

/// The encodings this stack ships.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WireEncoding {
    /// Textual XML 1.0.
    Xml,
    /// BXSA binary XML.
    Bxsa,
}

/// The transports this stack ships.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WireTransport {
    /// Length-prefixed raw TCP.
    Tcp,
    /// HTTP POST.
    Http,
}

impl WireConfig {
    /// Parse the `(encoding, transport)` tokens used in WSDL extension
    /// attributes (`"bxsa"`/`"xml"`, `"tcp"`/`"http"`).
    pub fn parse(encoding: &str, transport: &str) -> SoapResult<WireConfig> {
        let encoding = match encoding {
            "xml" => WireEncoding::Xml,
            "bxsa" => WireEncoding::Bxsa,
            other => {
                return Err(SoapError::Protocol(format!(
                    "unknown encoding token {other:?}"
                )))
            }
        };
        let transport = match transport {
            "tcp" => WireTransport::Tcp,
            "http" => WireTransport::Http,
            other => {
                return Err(SoapError::Protocol(format!(
                    "unknown transport token {other:?}"
                )))
            }
        };
        Ok(WireConfig {
            encoding,
            transport,
        })
    }

    /// The tokens, for WSDL generation.
    pub fn tokens(&self) -> (&'static str, &'static str) {
        (
            match self.encoding {
                WireEncoding::Xml => "xml",
                WireEncoding::Bxsa => "bxsa",
            },
            match self.transport {
                WireTransport::Tcp => "tcp",
                WireTransport::Http => "http",
            },
        )
    }
}

/// One engine value covering all four policy combinations.
pub enum AnyEngine {
    /// XML over HTTP.
    XmlHttp(SoapEngine<XmlEncoding, HttpBinding>),
    /// XML over raw TCP.
    XmlTcp(SoapEngine<XmlEncoding, TcpBinding>),
    /// BXSA over HTTP.
    BxsaHttp(SoapEngine<BxsaEncoding, HttpBinding>),
    /// BXSA over raw TCP.
    BxsaTcp(SoapEngine<BxsaEncoding, TcpBinding>),
}

impl AnyEngine {
    /// Build an engine for a runtime wire configuration. `address` is a
    /// `host:port`; HTTP bindings additionally take `path`.
    pub fn connect(config: WireConfig, address: &str, path: &str) -> AnyEngine {
        match (config.encoding, config.transport) {
            (WireEncoding::Xml, WireTransport::Http) => AnyEngine::XmlHttp(SoapEngine::new(
                XmlEncoding::default(),
                HttpBinding::new(address, path),
            )),
            (WireEncoding::Xml, WireTransport::Tcp) => AnyEngine::XmlTcp(SoapEngine::new(
                XmlEncoding::default(),
                TcpBinding::new(address),
            )),
            (WireEncoding::Bxsa, WireTransport::Http) => AnyEngine::BxsaHttp(SoapEngine::new(
                BxsaEncoding::default(),
                HttpBinding::new(address, path),
            )),
            (WireEncoding::Bxsa, WireTransport::Tcp) => AnyEngine::BxsaTcp(SoapEngine::new(
                BxsaEncoding::default(),
                TcpBinding::new(address),
            )),
        }
    }

    /// Request/response exchange with per-call options (dispatches to
    /// the inner engine's [`SoapEngine::call_with`]).
    pub fn call_with(
        &mut self,
        request: SoapEnvelope,
        options: &CallOptions,
    ) -> SoapResult<SoapEnvelope> {
        match self {
            AnyEngine::XmlHttp(e) => e.call_with(request, options),
            AnyEngine::XmlTcp(e) => e.call_with(request, options),
            AnyEngine::BxsaHttp(e) => e.call_with(request, options),
            AnyEngine::BxsaTcp(e) => e.call_with(request, options),
        }
    }

    /// Typed request/response exchange (dispatches to the inner engine's
    /// [`SoapEngine::call_typed`]) — the fast path is available on every
    /// wire configuration, since both shipped encodings implement
    /// [`crate::TypedEncoding`].
    pub fn call_typed<Req: ToBxsa, Resp: FromBxsa>(
        &mut self,
        request: &Req,
        options: &CallOptions,
    ) -> SoapResult<Resp> {
        match self {
            AnyEngine::XmlHttp(e) => e.call_typed(request, options),
            AnyEngine::XmlTcp(e) => e.call_typed(request, options),
            AnyEngine::BxsaHttp(e) => e.call_typed(request, options),
            AnyEngine::BxsaTcp(e) => e.call_typed(request, options),
        }
    }

    /// One-way send.
    pub fn send(&mut self, message: SoapEnvelope) -> SoapResult<()> {
        match self {
            AnyEngine::XmlHttp(e) => e.send(message),
            AnyEngine::XmlTcp(e) => e.send(message),
            AnyEngine::BxsaHttp(e) => e.send(message),
            AnyEngine::BxsaTcp(e) => e.send(message),
        }
    }

    /// The configuration this engine was built for.
    pub fn config(&self) -> WireConfig {
        match self {
            AnyEngine::XmlHttp(_) => WireConfig {
                encoding: WireEncoding::Xml,
                transport: WireTransport::Http,
            },
            AnyEngine::XmlTcp(_) => WireConfig {
                encoding: WireEncoding::Xml,
                transport: WireTransport::Tcp,
            },
            AnyEngine::BxsaHttp(_) => WireConfig {
                encoding: WireEncoding::Bxsa,
                transport: WireTransport::Http,
            },
            AnyEngine::BxsaTcp(_) => WireConfig {
                encoding: WireEncoding::Bxsa,
                transport: WireTransport::Tcp,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{HttpSoapServer, TcpSoapServer};
    use crate::service::ServiceRegistry;
    use bxdm::Element;
    use std::sync::Arc;

    fn registry() -> Arc<ServiceRegistry> {
        Arc::new(ServiceRegistry::new().with_operation("Ping", |_req| {
            Ok(SoapEnvelope::with_body(Element::component("Pong")))
        }))
    }

    #[test]
    fn config_token_roundtrip() {
        for (e, t) in [("xml", "tcp"), ("xml", "http"), ("bxsa", "tcp"), ("bxsa", "http")] {
            let c = WireConfig::parse(e, t).unwrap();
            assert_eq!(c.tokens(), (e, t));
        }
        assert!(WireConfig::parse("exi", "tcp").is_err());
        assert!(WireConfig::parse("xml", "smtp").is_err());
    }

    #[test]
    fn all_configs_reach_matching_servers() {
        let tcp_bxsa =
            TcpSoapServer::bind("127.0.0.1:0", BxsaEncoding::default(), registry()).unwrap();
        let tcp_xml =
            TcpSoapServer::bind("127.0.0.1:0", XmlEncoding::default(), registry()).unwrap();
        let http_bxsa =
            HttpSoapServer::bind("127.0.0.1:0", "/s", BxsaEncoding::default(), registry())
                .unwrap();
        let http_xml =
            HttpSoapServer::bind("127.0.0.1:0", "/s", XmlEncoding::default(), registry())
                .unwrap();

        let cases = [
            ("bxsa", "tcp", tcp_bxsa.local_addr().to_string()),
            ("xml", "tcp", tcp_xml.local_addr().to_string()),
            ("bxsa", "http", http_bxsa.local_addr().to_string()),
            ("xml", "http", http_xml.local_addr().to_string()),
        ];
        for (enc, tr, addr) in &cases {
            let config = WireConfig::parse(enc, tr).unwrap();
            let mut engine = AnyEngine::connect(config, addr, "/s");
            assert_eq!(engine.config(), config);
            let resp = engine
                .call_with(SoapEnvelope::with_body(Element::component("Ping")), &crate::engine::CallOptions::new())
                .unwrap_or_else(|e| panic!("{enc}/{tr}: {e}"));
            assert_eq!(resp.operation(), Some("Pong"));
        }

        tcp_bxsa.shutdown();
        tcp_xml.shutdown();
        http_bxsa.shutdown();
        http_xml.shutdown();
    }
}
