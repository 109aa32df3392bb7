//! HTTP requests.

use std::io::{BufRead, Write};

use crate::error::{TransportError, TransportResult};
use crate::http::{
    find_header, pairs, push_framing, push_headers, read_body_into, read_headers_into, read_line,
};
use crate::iovec::write_all_parts;

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
        find_header(pairs(&self.headers), name)
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
        self.write_with_body(out, &[&self.body], keep_alive, &mut Vec::new())
    }

    /// [`write_to_with`](HttpRequest::write_to_with) with the body passed
    /// separately as `body` concatenated (the `body` field is ignored)
    /// and the head built in the caller's reused `head` buffer: head and
    /// body parts go out in one gather write, so a caller holding the
    /// payload elsewhere, even in pieces, sends it without copying it or
    /// allocating.
    pub(crate) fn write_with_body(
        &self,
        out: &mut impl Write,
        body: &[&[u8]],
        keep_alive: bool,
        head: &mut Vec<u8>,
    ) -> TransportResult<()> {
        let len = body.iter().map(|p| p.len()).sum();
        self.write_head(Some(len), keep_alive, head);
        write_all_parts(out, head, body)?;
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
        let mut head = Vec::new();
        self.write_head(None, keep_alive, &mut head);
        out.write_all(&head)?;
        out.flush()?;
        Ok(())
    }

    /// The request line and headers into `head` (contents replaced),
    /// framed by `Content-Length: <content_length>` or, for `None`,
    /// `Transfer-Encoding: chunked`. Caller-set framing and `Connection`
    /// headers are replaced.
    fn write_head(&self, content_length: Option<usize>, keep_alive: bool, head: &mut Vec<u8>) {
        head.clear();
        head.extend_from_slice(self.method.as_bytes());
        head.push(b' ');
        head.extend_from_slice(self.path.as_bytes());
        head.extend_from_slice(b" HTTP/1.1\r\n");
        push_headers(head, &self.headers, content_length.is_none());
        push_framing(head, content_length, keep_alive);
    }

    /// Parse a request from a buffered stream.
    pub fn read_from(reader: &mut impl BufRead) -> TransportResult<HttpRequest> {
        let mut line = Vec::new();
        let first = read_line(reader, &mut line)?;
        let mut parts = first.split_ascii_whitespace();
        let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
            (Some(m), Some(p), Some(v)) => (m.to_owned(), p.to_owned(), v),
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
        let mut headers = Vec::new();
        read_headers_into(reader, &mut headers, &mut line)?;
        let mut body = Vec::new();
        read_body_into(reader, &headers, &mut body)?;
        Ok(HttpRequest {
            method,
            path,
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
