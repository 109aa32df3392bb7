//! A minimal HTTP/1.1 implementation.
//!
//! Covers what the paper's configurations need — SOAP POSTs and
//! whole-file GETs — with `Content-Length` bodies by default, plus
//! HTTP/1.1 [`chunked`] transfer-encoding for the streaming path (one
//! message part per chunk, unknown total length). Pipelining and TLS are
//! intentionally out of scope.

pub mod chunked;
pub mod client;
pub mod date;
pub mod request;
pub mod response;
pub mod server;
pub mod streaming;

pub(crate) const CRLF: &str = "\r\n";

/// Read HTTP header lines (terminated by an empty line) from a buffered
/// reader, returning (first_line, header_pairs).
pub(crate) fn read_head(
    reader: &mut impl std::io::BufRead,
) -> crate::TransportResult<(String, Vec<(String, String)>)> {
    use crate::TransportError;

    let mut first = String::new();
    if reader.read_line(&mut first)? == 0 {
        return Err(TransportError::ConnectionClosed);
    }
    let first = first.trim_end().to_owned();
    let mut headers = Vec::new();
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(TransportError::ConnectionClosed);
        }
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            break;
        }
        let (name, value) = trimmed.split_once(':').ok_or_else(|| TransportError::BadHttp {
            what: format!("header line without a colon: {trimmed:?}"),
        })?;
        headers.push((name.trim().to_owned(), value.trim().to_owned()));
        if headers.len() > 256 {
            return Err(TransportError::BadHttp {
                what: "too many headers".into(),
            });
        }
    }
    Ok((first, headers))
}

/// Case-insensitive header lookup.
pub(crate) fn find_header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(n, _)| n.eq_ignore_ascii_case(name))
        .map(|(_, v)| v.as_str())
}

/// Does any `Connection:` header carry a `close` token? Checked across
/// every header of that name, so duplicate/conflicting headers err on the
/// side of closing.
pub(crate) fn wants_close(headers: &[(String, String)]) -> bool {
    connection_tokens(headers).any(|t| t.eq_ignore_ascii_case("close"))
}

/// The RFC 7230 §6 connection disposition for a *request*: any `close`
/// token wins; an explicit `keep-alive` token opts in; any other
/// `Connection:` option (malformed or unknown) closes conservatively;
/// with no `Connection:` header at all, HTTP/1.1 defaults to keep-alive
/// and HTTP/1.0 to close.
pub(crate) fn keep_alive_disposition(http11: bool, headers: &[(String, String)]) -> bool {
    let mut saw_option = false;
    let mut saw_keep_alive = false;
    for token in connection_tokens(headers) {
        saw_option = true;
        if token.eq_ignore_ascii_case("close") {
            return false;
        }
        if token.eq_ignore_ascii_case("keep-alive") {
            saw_keep_alive = true;
        }
    }
    saw_keep_alive || (!saw_option && http11)
}

/// The disposition a *response* promises: reuse only on an explicit
/// `keep-alive` with no `close` token. A server that says nothing gets a
/// fresh connection next time — our own servers always state it.
pub(crate) fn response_keeps_alive(headers: &[(String, String)]) -> bool {
    !wants_close(headers)
        && connection_tokens(headers).any(|t| t.eq_ignore_ascii_case("keep-alive"))
}

/// All comma-separated tokens across every `Connection:` header.
fn connection_tokens(headers: &[(String, String)]) -> impl Iterator<Item = &str> {
    headers
        .iter()
        .filter(|(n, _)| n.eq_ignore_ascii_case("connection"))
        .flat_map(|(_, v)| v.split(','))
        .map(str::trim)
        .filter(|t| !t.is_empty())
}

/// Does the header set declare a chunked body? Transfer-Encoding takes
/// precedence over any Content-Length (RFC 9112 §6.3); encodings other
/// than a final `chunked` are rejected by the caller's parse.
pub(crate) fn body_is_chunked(headers: &[(String, String)]) -> bool {
    find_header(headers, "Transfer-Encoding")
        .map(|v| {
            v.split(',')
                .next_back()
                .is_some_and(|t| t.trim().eq_ignore_ascii_case("chunked"))
        })
        .unwrap_or(false)
}

/// Read a message body into a reusable buffer (contents replaced,
/// capacity kept): `Content-Length`-delimited, or de-chunked when the
/// headers declare `Transfer-Encoding: chunked` — so buffered consumers
/// handle streamed senders transparently.
pub(crate) fn read_body_into(
    reader: &mut impl std::io::BufRead,
    headers: &[(String, String)],
    body: &mut Vec<u8>,
) -> crate::TransportResult<()> {
    use crate::TransportError;

    if body_is_chunked(headers) {
        return chunked::read_chunked_body_into(reader, body, crate::framed::MAX_FRAME_LEN);
    }
    let len = match find_header(headers, "Content-Length") {
        Some(v) => v.parse::<usize>().map_err(|_| TransportError::BadHttp {
            what: format!("bad Content-Length {v:?}"),
        })?,
        None => 0,
    };
    if len > crate::framed::MAX_FRAME_LEN {
        return Err(TransportError::FrameTooLarge {
            declared: len as u64,
        });
    }
    // The declared length is capped above, but memory is still only
    // committed as bytes arrive: a hostile Content-Length paired with a
    // trickle costs at most one chunk beyond what was received.
    crate::framed::read_len_into(len, body, |chunk| {
        reader.read_exact(chunk).map_err(|e| match e.kind() {
            std::io::ErrorKind::UnexpectedEof => TransportError::ConnectionClosed,
            _ => TransportError::Io(e),
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn read_body(
        reader: &mut impl std::io::BufRead,
        headers: &[(String, String)],
    ) -> crate::TransportResult<Vec<u8>> {
        let mut body = Vec::new();
        read_body_into(reader, headers, &mut body)?;
        Ok(body)
    }

    #[test]
    fn connection_disposition_follows_rfc7230() {
        let h = |v: &[(&str, &str)]| -> Vec<(String, String)> {
            v.iter().map(|(n, s)| (n.to_string(), s.to_string())).collect()
        };
        // Version defaults with no Connection header.
        assert!(keep_alive_disposition(true, &h(&[])));
        assert!(!keep_alive_disposition(false, &h(&[])));
        // Explicit tokens override the version default either way.
        assert!(!keep_alive_disposition(true, &h(&[("Connection", "close")])));
        assert!(keep_alive_disposition(false, &h(&[("connection", "Keep-Alive")])));
        // Duplicate conflicting headers and token lists close.
        assert!(!keep_alive_disposition(
            true,
            &h(&[("Connection", "keep-alive"), ("Connection", "close")])
        ));
        assert!(!keep_alive_disposition(true, &h(&[("Connection", "keep-alive, close")])));
        // Unknown options close conservatively.
        assert!(!keep_alive_disposition(true, &h(&[("Connection", "upgrade")])));
        // Responses must promise reuse explicitly.
        assert!(response_keeps_alive(&h(&[("Connection", "keep-alive")])));
        assert!(!response_keeps_alive(&h(&[])));
        assert!(!response_keeps_alive(&h(&[("Connection", "close")])));
    }

    #[test]
    fn read_head_parses_headers() {
        let raw = "GET / HTTP/1.1\r\nHost: x\r\nContent-Length: 3\r\n\r\nabc";
        let mut r = BufReader::new(raw.as_bytes());
        let (first, headers) = read_head(&mut r).unwrap();
        assert_eq!(first, "GET / HTTP/1.1");
        assert_eq!(find_header(&headers, "host"), Some("x"));
        let body = read_body(&mut r, &headers).unwrap();
        assert_eq!(body, b"abc");
    }

    #[test]
    fn read_body_into_reuses_capacity() {
        let headers = vec![("Content-Length".to_owned(), "5".to_owned())];
        let mut body = Vec::with_capacity(64);
        body.extend_from_slice(b"stale contents that must vanish");
        let ptr = body.as_ptr();
        let mut r = BufReader::new(&b"hello"[..]);
        read_body_into(&mut r, &headers, &mut body).unwrap();
        assert_eq!(body, b"hello");
        assert_eq!(body.as_ptr(), ptr, "capacity must be reused");
    }

    /// Content-Length and chunked bodies through one reused buffer, in
    /// the framed transport's reply sequence: each read must return
    /// exactly its own bytes, with no tail left from a longer one.
    #[test]
    fn reused_buffer_body_reads_carry_no_stale_tail() {
        let replies = crate::framed::tests::reply_sequence();
        let mut sized = Vec::new();
        let mut chunked = Vec::new();
        for reply in &replies {
            sized.extend_from_slice(reply);
            for part in reply.chunks(64 * 1024) {
                chunked::write_chunk(&mut chunked, part);
            }
            chunked::write_final_chunk(&mut chunked);
        }
        let chunked_headers = vec![("Transfer-Encoding".to_owned(), "chunked".to_owned())];
        let mut sized_reader = BufReader::new(&sized[..]);
        let mut chunked_reader = BufReader::new(&chunked[..]);
        let mut body = Vec::new();
        for reply in &replies {
            let headers = vec![("Content-Length".to_owned(), reply.len().to_string())];
            read_body_into(&mut sized_reader, &headers, &mut body).unwrap();
            assert!(body == *reply, "{}-byte Content-Length body", reply.len());
            read_body_into(&mut chunked_reader, &chunked_headers, &mut body).unwrap();
            assert!(body == *reply, "{}-byte chunked body", reply.len());
        }
    }

    #[test]
    fn missing_colon_is_bad_http() {
        let raw = "GET / HTTP/1.1\r\nBogusHeader\r\n\r\n";
        let mut r = BufReader::new(raw.as_bytes());
        assert!(read_head(&mut r).is_err());
    }

    #[test]
    fn eof_is_connection_closed() {
        let mut r = BufReader::new(&b""[..]);
        assert!(matches!(
            read_head(&mut r),
            Err(crate::TransportError::ConnectionClosed)
        ));
    }

    #[test]
    fn body_without_length_is_empty() {
        let mut r = BufReader::new(&b"rest"[..]);
        assert_eq!(read_body(&mut r, &[]).unwrap(), b"");
    }

    #[test]
    fn truncated_body_is_closed() {
        let headers = vec![("Content-Length".to_owned(), "10".to_owned())];
        let mut r = BufReader::new(&b"abc"[..]);
        assert!(matches!(
            read_body(&mut r, &headers),
            Err(crate::TransportError::ConnectionClosed)
        ));
    }
}
