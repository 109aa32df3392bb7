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

/// Read one line into `line` (contents replaced) and return it without
/// its line ending. EOF before any byte is [`TransportError::ConnectionClosed`].
///
/// [`TransportError::ConnectionClosed`]: crate::TransportError::ConnectionClosed
pub(crate) fn read_line<'a>(
    reader: &mut impl std::io::BufRead,
    line: &'a mut Vec<u8>,
) -> crate::TransportResult<&'a str> {
    use crate::TransportError;

    line.clear();
    if reader.read_until(b'\n', line)? == 0 {
        return Err(TransportError::ConnectionClosed);
    }
    let text = std::str::from_utf8(line).map_err(|_| TransportError::BadHttp {
        what: "head line is not UTF-8".into(),
    })?;
    Ok(text.trim_end())
}

/// Read header lines up to the blank line into `headers`, refilling the
/// strings of the slots already there, so a reader that sees the same
/// headers every time allocates nothing. `line` is scratch.
pub(crate) fn read_headers_into(
    reader: &mut impl std::io::BufRead,
    headers: &mut Vec<(String, String)>,
    line: &mut Vec<u8>,
) -> crate::TransportResult<()> {
    use crate::TransportError;

    let mut count = 0;
    loop {
        let text = read_line(reader, line)?;
        if text.is_empty() {
            headers.truncate(count);
            return Ok(());
        }
        let (name, value) = text
            .split_once(':')
            .ok_or_else(|| TransportError::BadHttp {
                what: format!("header line without a colon: {text:?}"),
            })?;
        if count == MAX_HEADERS {
            return Err(TransportError::BadHttp {
                what: "too many headers".into(),
            });
        }
        if count == headers.len() {
            headers.push(Default::default());
        }
        let slot = &mut headers[count];
        slot.0.clear();
        slot.0.push_str(name.trim());
        slot.1.clear();
        slot.1.push_str(value.trim());
        count += 1;
    }
}

/// Append `name: value\r\n`.
pub(crate) fn push_header(out: &mut Vec<u8>, name: &str, value: &str) {
    out.extend_from_slice(name.as_bytes());
    out.extend_from_slice(b": ");
    out.extend_from_slice(value.as_bytes());
    out.extend_from_slice(b"\r\n");
}

/// Append caller-set headers, dropping the ones a head writer states
/// itself: `Connection`, `Content-Length`, and, for a chunked head,
/// `Transfer-Encoding`.
pub(crate) fn push_headers(out: &mut Vec<u8>, headers: &[(String, String)], chunked: bool) {
    for (name, value) in headers {
        if name.eq_ignore_ascii_case("connection")
            || name.eq_ignore_ascii_case("content-length")
            || (chunked && name.eq_ignore_ascii_case("transfer-encoding"))
        {
            continue;
        }
        push_header(out, name, value);
    }
}

/// Append a response's status line.
pub(crate) fn push_status_line(out: &mut Vec<u8>, status: u16, reason: &str) {
    out.extend_from_slice(b"HTTP/1.1 ");
    push_decimal(out, status.into());
    out.push(b' ');
    out.extend_from_slice(reason.as_bytes());
    out.extend_from_slice(b"\r\n");
}

/// Append the decimal digits of `n`.
fn push_decimal(out: &mut Vec<u8>, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

/// Append the framing header — `Content-Length: <len>` or, for `None`,
/// `Transfer-Encoding: chunked` — then the one `Connection:` header
/// stating `keep_alive`, and the blank line ending the head.
pub(crate) fn push_framing(out: &mut Vec<u8>, content_length: Option<usize>, keep_alive: bool) {
    match content_length {
        Some(len) => {
            out.extend_from_slice(b"Content-Length: ");
            push_decimal(out, len as u64);
            out.extend_from_slice(b"\r\n");
        }
        None => out.extend_from_slice(b"Transfer-Encoding: chunked\r\n"),
    }
    out.extend_from_slice(if keep_alive {
        b"Connection: keep-alive\r\n\r\n"
    } else {
        b"Connection: close\r\n\r\n"
    });
}

/// Most headers one message may carry.
pub(crate) const MAX_HEADERS: usize = 256;

/// Owned header pairs as borrowed `(name, value)` strings.
pub(crate) fn pairs(headers: &[(String, String)]) -> impl Iterator<Item = (&str, &str)> + Clone {
    headers.iter().map(|(n, v)| (n.as_str(), v.as_str()))
}

/// Case-insensitive header lookup.
pub(crate) fn find_header<'a>(
    mut headers: impl Iterator<Item = (&'a str, &'a str)>,
    name: &str,
) -> Option<&'a str> {
    headers
        .find(|(n, _)| n.eq_ignore_ascii_case(name))
        .map(|(_, v)| v)
}

/// Does any `Connection:` header carry a `close` token? Checked across
/// every header of that name, so duplicate/conflicting headers err on the
/// side of closing.
pub(crate) fn wants_close<'a>(headers: impl Iterator<Item = (&'a str, &'a str)>) -> bool {
    connection_tokens(headers).any(|t| t.eq_ignore_ascii_case("close"))
}

/// The RFC 7230 §6 connection disposition for a *request*: any `close`
/// token wins; an explicit `keep-alive` token opts in; any other
/// `Connection:` option (malformed or unknown) closes conservatively;
/// with no `Connection:` header at all, HTTP/1.1 defaults to keep-alive
/// and HTTP/1.0 to close.
pub(crate) fn keep_alive_disposition<'a>(
    http11: bool,
    headers: impl Iterator<Item = (&'a str, &'a str)>,
) -> bool {
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
pub(crate) fn response_keeps_alive<'a>(
    headers: impl Iterator<Item = (&'a str, &'a str)> + Clone,
) -> bool {
    !wants_close(headers.clone())
        && connection_tokens(headers).any(|t| t.eq_ignore_ascii_case("keep-alive"))
}

/// All comma-separated tokens across every `Connection:` header.
fn connection_tokens<'a>(
    headers: impl Iterator<Item = (&'a str, &'a str)>,
) -> impl Iterator<Item = &'a str> {
    headers
        .filter(|(n, _)| n.eq_ignore_ascii_case("connection"))
        .flat_map(|(_, v)| v.split(','))
        .map(str::trim)
        .filter(|t| !t.is_empty())
}

/// Does the header set declare a chunked body? Transfer-Encoding takes
/// precedence over any Content-Length (RFC 9112 §6.3); encodings other
/// than a final `chunked` are rejected by the caller's parse.
pub(crate) fn body_is_chunked<'a>(headers: impl Iterator<Item = (&'a str, &'a str)>) -> bool {
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
    let Some(len) = body_len(headers)? else {
        return chunked::read_chunked_body_into(reader, body, crate::framed::MAX_FRAME_LEN);
    };
    // The declared length is capped, but memory is still only committed
    // as bytes arrive: a hostile Content-Length paired with a trickle
    // costs at most one chunk beyond what was received.
    crate::framed::read_len_into(len, body, |chunk| {
        reader.read_exact(chunk).map_err(|e| match e.kind() {
            std::io::ErrorKind::UnexpectedEof => crate::TransportError::ConnectionClosed,
            _ => crate::TransportError::Io(e),
        })
    })
}

/// [`read_body_into`] through `sink`: a `Content-Length` body as it
/// arrives, a chunked one whole into [`BodySink::whole`].
///
/// [`BodySink::whole`]: crate::framed::BodySink::whole
pub(crate) fn read_body_to(
    reader: &mut impl std::io::BufRead,
    headers: &[(String, String)],
    sink: &mut dyn crate::framed::BodySink,
) -> crate::TransportResult<()> {
    let Some(len) = body_len(headers)? else {
        return chunked::read_chunked_body_into(reader, sink.whole(), crate::framed::MAX_FRAME_LEN);
    };
    match crate::framed::read_len_to(len, sink, |buf| reader.read(buf)) {
        Ok(true) => Ok(()),
        Ok(false) => Err(crate::TransportError::ConnectionClosed),
        Err(e) => Err(crate::TransportError::Io(e)),
    }
}

/// The declared body length under the frame cap, or `None` for a chunked
/// body.
fn body_len(headers: &[(String, String)]) -> crate::TransportResult<Option<usize>> {
    use crate::TransportError;

    if body_is_chunked(pairs(headers)) {
        return Ok(None);
    }
    let len = match find_header(pairs(headers), "Content-Length") {
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
    Ok(Some(len))
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
        fn h<'a>(v: &'a [(&'a str, &'a str)]) -> impl Iterator<Item = (&'a str, &'a str)> + Clone {
            v.iter().copied()
        }
        // Version defaults with no Connection header.
        assert!(keep_alive_disposition(true, h(&[])));
        assert!(!keep_alive_disposition(false, h(&[])));
        // Explicit tokens override the version default either way.
        assert!(!keep_alive_disposition(true, h(&[("Connection", "close")])));
        assert!(keep_alive_disposition(
            false,
            h(&[("connection", "Keep-Alive")])
        ));
        // Duplicate conflicting headers and token lists close.
        assert!(!keep_alive_disposition(
            true,
            h(&[("Connection", "keep-alive"), ("Connection", "close")])
        ));
        assert!(!keep_alive_disposition(
            true,
            h(&[("Connection", "keep-alive, close")])
        ));
        // Unknown options close conservatively.
        assert!(!keep_alive_disposition(
            true,
            h(&[("Connection", "upgrade")])
        ));
        // Responses must promise reuse explicitly.
        assert!(response_keeps_alive(h(&[("Connection", "keep-alive")])));
        assert!(!response_keeps_alive(h(&[])));
        assert!(!response_keeps_alive(h(&[("Connection", "close")])));
    }

    #[test]
    fn read_head_parses_headers() {
        let raw = "GET / HTTP/1.1\r\nHost: x\r\nContent-Length: 3\r\n\r\nabc";
        let mut r = BufReader::new(raw.as_bytes());
        let mut line = Vec::new();
        assert_eq!(read_line(&mut r, &mut line).unwrap(), "GET / HTTP/1.1");
        let mut headers = Vec::new();
        read_headers_into(&mut r, &mut headers, &mut line).unwrap();
        assert_eq!(find_header(pairs(&headers), "host"), Some("x"));
        let body = read_body(&mut r, &headers).unwrap();
        assert_eq!(body, b"abc");
    }

    /// Header slots are refilled in place: the same head read twice into
    /// the same storage reuses every string.
    #[test]
    fn read_headers_into_refills_its_slots() {
        let raw = "Content-Type: text/xml\r\nConnection: keep-alive\r\n\r\n";
        let mut headers = Vec::new();
        let mut line = Vec::new();
        read_headers_into(&mut BufReader::new(raw.as_bytes()), &mut headers, &mut line).unwrap();
        let ptrs: Vec<_> = headers
            .iter()
            .map(|(n, v)| (n.as_ptr(), v.as_ptr()))
            .collect();
        read_headers_into(&mut BufReader::new(raw.as_bytes()), &mut headers, &mut line).unwrap();
        assert_eq!(
            headers[1],
            ("Connection".to_owned(), "keep-alive".to_owned())
        );
        let again: Vec<_> = headers
            .iter()
            .map(|(n, v)| (n.as_ptr(), v.as_ptr()))
            .collect();
        assert_eq!(ptrs, again);
        read_headers_into(&mut BufReader::new(&b"\r\n"[..]), &mut headers, &mut line).unwrap();
        assert!(headers.is_empty(), "a shorter head drops the extra slots");
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
        let raw = "BogusHeader\r\n\r\n";
        let mut r = BufReader::new(raw.as_bytes());
        assert!(read_headers_into(&mut r, &mut Vec::new(), &mut Vec::new()).is_err());
    }

    #[test]
    fn eof_is_connection_closed() {
        let mut r = BufReader::new(&b""[..]);
        assert!(matches!(
            read_line(&mut r, &mut Vec::new()),
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
