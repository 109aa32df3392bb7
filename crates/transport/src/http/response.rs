//! HTTP responses.

use std::io::{BufRead, Write};

use crate::error::{TransportError, TransportResult};
use crate::framed::BodySink;
use crate::http::{
    find_header, pairs, push_framing, push_headers, push_status_line, read_body_into, read_body_to,
    read_headers_into, read_line,
};

/// An HTTP/1.1 response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// Status code (200, 404, 500, ...).
    pub status: u16,
    /// Reason phrase.
    pub reason: String,
    /// Headers in arrival order.
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// A 200 OK with a typed body.
    pub fn ok(content_type: &str, body: Vec<u8>) -> HttpResponse {
        HttpResponse {
            status: 200,
            reason: "OK".into(),
            headers: vec![("Content-Type".into(), content_type.into())],
            body,
        }
    }

    /// A 404 Not Found.
    pub fn not_found() -> HttpResponse {
        HttpResponse {
            status: 404,
            reason: "Not Found".into(),
            headers: Vec::new(),
            body: b"not found".to_vec(),
        }
    }

    /// A 400 Bad Request with a diagnostic body.
    pub fn bad_request(msg: &str) -> HttpResponse {
        HttpResponse {
            status: 400,
            reason: "Bad Request".into(),
            headers: Vec::new(),
            body: msg.as_bytes().to_vec(),
        }
    }

    /// A 413 Payload Too Large — the typed rejection for a declared
    /// `Content-Length` beyond the server's frame limit.
    pub fn payload_too_large() -> HttpResponse {
        HttpResponse {
            status: 413,
            reason: "Payload Too Large".into(),
            headers: Vec::new(),
            body: b"declared body length exceeds the frame size limit".to_vec(),
        }
    }

    /// A 500 Internal Server Error with a diagnostic body.
    ///
    /// SOAP-over-HTTP maps faults onto 500 responses, so the SOAP binding
    /// uses this constructor for fault envelopes.
    pub fn server_error(body: Vec<u8>) -> HttpResponse {
        HttpResponse {
            status: 500,
            reason: "Internal Server Error".into(),
            headers: Vec::new(),
            body,
        }
    }

    /// A 503 Service Unavailable with a `Retry-After` delta-seconds
    /// header — the explicit overload answer. The hint is rounded up to
    /// at least one second so a sub-second hint never serializes as
    /// `Retry-After: 0` (which some clients read as "hammer away").
    pub fn service_unavailable(retry_after: std::time::Duration) -> HttpResponse {
        let secs = retry_after.as_secs().max(1);
        HttpResponse {
            status: 503,
            reason: "Service Unavailable".into(),
            headers: vec![("Retry-After".into(), secs.to_string())],
            body: b"server overloaded; retry later".to_vec(),
        }
    }

    /// Add a header (chainable).
    pub fn with_header(mut self, name: &str, value: &str) -> HttpResponse {
        self.headers.push((name.into(), value.into()));
        self
    }

    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        find_header(pairs(&self.headers), name)
    }

    /// `true` for 2xx statuses.
    pub fn is_success(&self) -> bool {
        (200..300).contains(&self.status)
    }

    /// This response as a typed status error, preserving a diagnostic
    /// body prefix and any `Retry-After` header — either delta-seconds
    /// or an RFC 7231 HTTP-date (converted to a delay from now, clamped
    /// to a day), so real-world 503s still stretch the retry backoff.
    pub fn status_error(&self) -> TransportError {
        let retry_after = self
            .header("Retry-After")
            .and_then(crate::http::date::parse_retry_after);
        TransportError::http_status(self.status, &self.reason, &self.body, retry_after)
    }

    /// Serialize onto a stream for a one-shot exchange
    /// (`Connection: close`).
    pub fn write_to(&self, out: &mut impl Write) -> TransportResult<()> {
        self.write_to_with(out, false)
    }

    /// Serialize onto a stream, stating the actual connection
    /// disposition: `Connection: keep-alive` when the sender will serve
    /// another request on this connection, `Connection: close` when it
    /// won't — so clients can trust the header.
    ///
    /// Head and body go out in one vectored write — the body (which may be
    /// a large BXSA payload) is never copied into the head buffer.
    pub fn write_to_with(&self, out: &mut impl Write, keep_alive: bool) -> TransportResult<()> {
        use std::io::IoSlice;

        let mut head = Vec::with_capacity(128);
        self.write_head(Some(self.body.len()), keep_alive, &mut head);
        let mut bufs = [IoSlice::new(&head), IoSlice::new(&self.body)];
        crate::iovec::write_all_vectored(out, &mut bufs)?;
        out.flush()?;
        Ok(())
    }

    /// Build the wire head (status line through blank line) into a
    /// reusable buffer. `Some(len)` frames the reply with
    /// `Content-Length: len`; `None` frames it with
    /// `Transfer-Encoding: chunked`, and the caller streams chunks followed
    /// by the zero-chunk terminator. Exactly one `Connection:` header
    /// reflects `keep_alive`; caller-set `Connection`, `Content-Length`
    /// (and, for chunked replies, `Transfer-Encoding`) headers are
    /// dropped: the message on the wire must describe what the connection
    /// will actually do.
    pub(crate) fn write_head(
        &self,
        content_length: Option<usize>,
        keep_alive: bool,
        head: &mut Vec<u8>,
    ) {
        head.clear();
        push_status_line(head, self.status, &self.reason);
        push_headers(head, &self.headers, content_length.is_none());
        push_framing(head, content_length, keep_alive);
    }

    /// An empty placeholder (status 0, no headers, no body) — the
    /// reusable parse target for
    /// [`read_from_into`](HttpResponse::read_from_into).
    pub fn empty() -> HttpResponse {
        HttpResponse {
            status: 0,
            reason: String::new(),
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    /// Parse a response from a buffered stream.
    pub fn read_from(reader: &mut impl BufRead) -> TransportResult<HttpResponse> {
        let mut response = HttpResponse::empty();
        HttpResponse::read_from_into(reader, &mut response)?;
        Ok(response)
    }

    /// [`read_from`](HttpResponse::read_from) into an existing value,
    /// reusing its storage: the body buffer's capacity and the header
    /// strings are kept, so a client reading similar responses allocates
    /// nothing. On error, `into` holds unspecified but valid contents.
    pub fn read_from_into(
        reader: &mut impl BufRead,
        into: &mut HttpResponse,
    ) -> TransportResult<()> {
        HttpResponse::read_head_into(reader, into)?;
        read_body_into(reader, &into.headers, &mut into.body)
    }

    /// [`read_from_into`](HttpResponse::read_from_into) with a success
    /// (2xx) body read through `sink` as it arrives. Any other status's
    /// body is read into `into.body`, where
    /// [`status_error`](HttpResponse::status_error) finds it.
    pub fn read_to(
        reader: &mut impl BufRead,
        into: &mut HttpResponse,
        sink: &mut dyn BodySink,
    ) -> TransportResult<()> {
        HttpResponse::read_head_into(reader, into)?;
        if !into.is_success() {
            return read_body_into(reader, &into.headers, &mut into.body);
        }
        into.body.clear();
        read_body_to(reader, &into.headers, sink)
    }

    /// Parse only the status line and headers into an existing value —
    /// the streaming client reads the head first to learn whether the
    /// reply body is chunked, then pulls parts (or the buffered body)
    /// separately. The body buffer serves as line scratch, so its
    /// contents are unspecified afterwards (its capacity is kept).
    pub fn read_head_into(
        reader: &mut impl BufRead,
        into: &mut HttpResponse,
    ) -> TransportResult<()> {
        let first = read_line(reader, &mut into.body)?;
        let mut parts = first.splitn(3, ' ');
        let (version, status, reason) = match (parts.next(), parts.next(), parts.next()) {
            (Some(v), Some(s), reason) => (v, s, reason.unwrap_or("")),
            _ => {
                return Err(TransportError::BadHttp {
                    what: format!("bad status line {first:?}"),
                })
            }
        };
        if !version.starts_with("HTTP/1.") {
            return Err(TransportError::BadHttp {
                what: format!("unsupported version {version:?}"),
            });
        }
        let status: u16 = status.parse().map_err(|_| TransportError::BadHttp {
            what: format!("bad status code {status:?}"),
        })?;
        into.reason.clear();
        into.reason.push_str(reason);
        into.status = status;
        read_headers_into(reader, &mut into.headers, &mut into.body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn roundtrip_ok() {
        let resp = HttpResponse::ok("application/octet-stream", vec![1, 2, 3])
            .with_header("X-Run", "42");
        let mut wire = Vec::new();
        resp.write_to(&mut wire).unwrap();
        let back = HttpResponse::read_from(&mut BufReader::new(&wire[..])).unwrap();
        assert_eq!(back.status, 200);
        assert!(back.is_success());
        assert_eq!(back.header("x-run"), Some("42"));
        assert_eq!(back.body, vec![1, 2, 3]);
    }

    #[test]
    fn error_constructors() {
        assert_eq!(HttpResponse::not_found().status, 404);
        assert_eq!(HttpResponse::bad_request("x").status, 400);
        assert_eq!(HttpResponse::server_error(vec![]).status, 500);
        assert!(!HttpResponse::not_found().is_success());
    }

    #[test]
    fn reason_phrases_with_spaces_survive() {
        let mut wire = Vec::new();
        HttpResponse::not_found().write_to(&mut wire).unwrap();
        let back = HttpResponse::read_from(&mut BufReader::new(&wire[..])).unwrap();
        assert_eq!(back.reason, "Not Found");
    }

    #[test]
    fn status_error_carries_body_and_retry_after() {
        let resp = HttpResponse {
            status: 503,
            reason: "Service Unavailable".into(),
            headers: vec![("Retry-After".into(), "3".into())],
            body: b"overloaded, come back later".to_vec(),
        };
        match resp.status_error() {
            TransportError::HttpStatus {
                status,
                body_prefix,
                retry_after_secs,
                ..
            } => {
                assert_eq!(status, 503);
                assert_eq!(body_prefix, b"overloaded, come back later");
                assert_eq!(retry_after_secs, Some(3));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn status_error_accepts_http_date_retry_after() {
        // A date in the past means "retry now" — hint of zero, not None.
        let resp = HttpResponse {
            status: 503,
            reason: "Service Unavailable".into(),
            headers: vec![(
                "Retry-After".into(),
                "Sun, 06 Nov 1994 08:49:37 GMT".into(),
            )],
            body: Vec::new(),
        };
        match resp.status_error() {
            TransportError::HttpStatus {
                retry_after_secs, ..
            } => assert_eq!(retry_after_secs, Some(0)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn service_unavailable_carries_a_nonzero_hint() {
        use std::time::Duration;
        let resp = HttpResponse::service_unavailable(Duration::from_millis(200));
        assert_eq!(resp.status, 503);
        assert_eq!(resp.header("retry-after"), Some("1"), "rounded up, never 0");
        let resp = HttpResponse::service_unavailable(Duration::from_secs(3));
        assert_eq!(resp.header("retry-after"), Some("3"));
    }

    #[test]
    fn connection_header_reflects_disposition() {
        let resp = HttpResponse::ok("text/plain", b"x".to_vec());
        let mut wire = Vec::new();
        resp.write_to_with(&mut wire, true).unwrap();
        let back = HttpResponse::read_from(&mut BufReader::new(&wire[..])).unwrap();
        assert_eq!(back.header("connection"), Some("keep-alive"));

        wire.clear();
        resp.write_to(&mut wire).unwrap();
        let back = HttpResponse::read_from(&mut BufReader::new(&wire[..])).unwrap();
        assert_eq!(back.header("connection"), Some("close"));

        // A handler-set Connection header cannot contradict the wire:
        // exactly one header goes out, stating the actual disposition.
        let lying = resp.clone().with_header("Connection", "keep-alive");
        wire.clear();
        lying.write_to(&mut wire).unwrap();
        let back = HttpResponse::read_from(&mut BufReader::new(&wire[..])).unwrap();
        let count = back
            .headers
            .iter()
            .filter(|(n, _)| n.eq_ignore_ascii_case("connection"))
            .count();
        assert_eq!(count, 1);
        assert_eq!(back.header("connection"), Some("close"));
    }

    #[test]
    fn bad_status_line() {
        let mut r = BufReader::new(&b"HTTP/1.1 abc Oops\r\n\r\n"[..]);
        assert!(HttpResponse::read_from(&mut r).is_err());
    }
}
