//! HTTP requests.

use std::io::{BufRead, IoSlice, Write};

use crate::error::{TransportError, TransportResult};
use crate::http::{find_header, read_body_into, read_head, CRLF};
use crate::iovec::write_all_vectored;

/// An HTTP/1.1 request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// Request method (`GET`, `POST`, ...).
    pub method: String,
    /// Request target (origin-form path, e.g. `/data/run42.nc`).
    pub path: String,
    /// Headers in arrival order.
    pub headers: Vec<(String, String)>,
    /// Request body.
    pub body: Vec<u8>,
}

impl HttpRequest {
    /// A GET request for `path`.
    pub fn get(path: &str) -> HttpRequest {
        HttpRequest {
            method: "GET".into(),
            path: path.into(),
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    /// A POST with a typed body.
    pub fn post(path: &str, content_type: &str, body: Vec<u8>) -> HttpRequest {
        HttpRequest {
            method: "POST".into(),
            path: path.into(),
            headers: vec![("Content-Type".into(), content_type.into())],
            body,
        }
    }

    /// Add a header (chainable).
    pub fn with_header(mut self, name: &str, value: &str) -> HttpRequest {
        self.headers.push((name.into(), value.into()));
        self
    }

    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        find_header(&self.headers, name)
    }

    /// Serialize onto a stream for a one-shot exchange
    /// (`Connection: close`).
    pub fn write_to(&self, out: &mut impl Write) -> TransportResult<()> {
        self.write_to_with(out, false)
    }

    /// Serialize onto a stream, stating the actual connection
    /// disposition (`Connection: keep-alive` when the sender intends to
    /// reuse the connection, `close` otherwise). Adds `Content-Length`;
    /// caller-set `Connection`/`Content-Length` headers are dropped so
    /// exactly one of each goes out, and truthfully.
    pub fn write_to_with(&self, out: &mut impl Write, keep_alive: bool) -> TransportResult<()> {
        self.write_with_body(out, &self.body, keep_alive)
    }

    /// [`write_to_with`](HttpRequest::write_to_with) with the body passed
    /// separately (the `body` field is ignored): head and body go out in
    /// one vectored write loop, so a caller holding the payload elsewhere
    /// sends it without first copying it into the request.
    pub(crate) fn write_with_body(
        &self,
        out: &mut impl Write,
        body: &[u8],
        keep_alive: bool,
    ) -> TransportResult<()> {
        let head = self.head(Some(body.len()), keep_alive);
        write_all_vectored(
            out,
            &mut [IoSlice::new(head.as_bytes()), IoSlice::new(body)],
        )?;
        out.flush()?;
        Ok(())
    }

    /// Serialize only the head of this request for a **chunked** send:
    /// `Transfer-Encoding: chunked` replaces `Content-Length`, the body
    /// field is ignored, and the caller streams chunks (see
    /// [`crate::http::chunked`]) followed by the zero-chunk terminator.
    pub fn write_chunked_head_to(
        &self,
        out: &mut impl Write,
        keep_alive: bool,
    ) -> TransportResult<()> {
        out.write_all(self.head(None, keep_alive).as_bytes())?;
        out.flush()?;
        Ok(())
    }

    /// The request line and headers, framed by `Content-Length:
    /// <content_length>` or, for `None`, `Transfer-Encoding: chunked`.
    /// Caller-set framing and `Connection` headers are replaced.
    fn head(&self, content_length: Option<usize>, keep_alive: bool) -> String {
        let mut head = String::with_capacity(128);
        head.push_str(&self.method);
        head.push(' ');
        head.push_str(&self.path);
        head.push_str(" HTTP/1.1");
        head.push_str(CRLF);
        for (name, value) in &self.headers {
            if name.eq_ignore_ascii_case("connection")
                || name.eq_ignore_ascii_case("content-length")
                || (content_length.is_none() && name.eq_ignore_ascii_case("transfer-encoding"))
            {
                continue;
            }
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str(CRLF);
        }
        match content_length {
            Some(len) => head.push_str(&format!("Content-Length: {len}{CRLF}")),
            None => {
                head.push_str("Transfer-Encoding: chunked");
                head.push_str(CRLF);
            }
        }
        head.push_str(if keep_alive {
            "Connection: keep-alive"
        } else {
            "Connection: close"
        });
        head.push_str(CRLF);
        head.push_str(CRLF);
        head
    }

    /// Parse a request from a buffered stream.
    pub fn read_from(reader: &mut impl BufRead) -> TransportResult<HttpRequest> {
        HttpRequest::read_from_with_body(reader, Vec::new())
    }

    /// [`read_from`](HttpRequest::read_from), adopting `body` as the body
    /// buffer (contents replaced, capacity kept) — the server side of the
    /// pooled-body discipline.
    pub fn read_from_with_body(
        reader: &mut impl BufRead,
        mut body: Vec<u8>,
    ) -> TransportResult<HttpRequest> {
        let (first, headers) = read_head(reader)?;
        let mut parts = first.split_ascii_whitespace();
        let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
            (Some(m), Some(p), Some(v)) => (m, p, v),
            _ => {
                return Err(TransportError::BadHttp {
                    what: format!("bad request line {first:?}"),
                })
            }
        };
        if !version.starts_with("HTTP/1.") {
            return Err(TransportError::BadHttp {
                what: format!("unsupported version {version:?}"),
            });
        }
        read_body_into(reader, &headers, &mut body)?;
        Ok(HttpRequest {
            method: method.to_owned(),
            path: path.to_owned(),
            headers,
            body,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn roundtrip_post() {
        let req = HttpRequest::post("/soap", "text/xml", b"<e/>".to_vec())
            .with_header("SOAPAction", "\"verify\"");
        let mut wire = Vec::new();
        req.write_to(&mut wire).unwrap();
        let mut r = BufReader::new(&wire[..]);
        let back = HttpRequest::read_from(&mut r).unwrap();
        assert_eq!(back.method, "POST");
        assert_eq!(back.path, "/soap");
        assert_eq!(back.header("soapaction"), Some("\"verify\""));
        assert_eq!(back.header("content-length"), Some("4"));
        assert_eq!(back.body, b"<e/>");
    }

    #[test]
    fn get_has_empty_body() {
        let mut wire = Vec::new();
        HttpRequest::get("/f.nc").write_to(&mut wire).unwrap();
        let back = HttpRequest::read_from(&mut BufReader::new(&wire[..])).unwrap();
        assert_eq!(back.method, "GET");
        assert!(back.body.is_empty());
    }

    #[test]
    fn bad_request_line() {
        let mut r = BufReader::new(&b"NONSENSE\r\n\r\n"[..]);
        assert!(HttpRequest::read_from(&mut r).is_err());
        let mut r = BufReader::new(&b"GET / SPDY/3\r\n\r\n"[..]);
        assert!(HttpRequest::read_from(&mut r).is_err());
    }
}
