//! Fuzz the HTTP request parser, the chunked-transfer decoder, and the
//! Retry-After date parser — the three text protocols that read bytes
//! straight off a socket.
//!
//! Chunked-decoder oracle: feeding the same body byte-at-a-time and
//! all-at-once must produce the identical payload and the identical
//! accept/reject outcome — a split-sensitive parser is smuggling state.

use libfuzzer_sys::fuzz_target;
use transport::http::chunked::{ChunkDecoder, ChunkEvent};

/// Decode `data` as a chunked body, `step` bytes per feed. Returns the
/// concatenated payload, or `None` on a decode error.
fn decode_chunked(data: &[u8], step: usize) -> Option<Vec<u8>> {
    let mut dec = ChunkDecoder::new();
    let mut payload = Vec::new();
    let mut fed = 0;
    while fed < data.len() && !dec.is_done() {
        let end = (fed + step).min(data.len());
        let mut window = &data[fed..end];
        fed = end;
        while !window.is_empty() {
            match dec.advance(window) {
                Ok((n, event)) => {
                    match event {
                        ChunkEvent::NeedMore => {
                            if n == 0 {
                                break;
                            }
                        }
                        ChunkEvent::Data { payload: p, .. } => payload.extend_from_slice(p),
                        ChunkEvent::End => return Some(payload),
                    }
                    window = &window[n..];
                }
                Err(_) => return None,
            }
        }
    }
    if dec.is_done() {
        Some(payload)
    } else {
        None // truncated input: treated as reject for the oracle
    }
}

fuzz_target!(|data: &[u8]| {
    // Request head (+ body) parsing over an in-memory reader.
    let mut r = data;
    let _ = transport::http::request::HttpRequest::read_from(&mut r);

    // Chunked decoding must be split-invariant.
    let whole = decode_chunked(data, data.len().max(1));
    for step in [1usize, 2, 7] {
        let split = decode_chunked(data, step);
        assert_eq!(
            split, whole,
            "chunk decoder output depends on read boundaries (step {step})"
        );
    }

    // The blocking helper must agree with the incremental decoder on
    // acceptance whenever the body fits the cap.
    let mut out = Vec::new();
    let mut r = data;
    let blocking = transport::http::chunked::read_chunked_body_into(&mut r, &mut out, 1 << 20);
    if let (Ok(()), Some(p)) = (&blocking, &whole) {
        assert_eq!(&out, p, "blocking and incremental chunk decoders diverge");
    }

    // Date parsing: any ASCII-ish slice is fair game.
    if let Ok(s) = std::str::from_utf8(data) {
        let _ = transport::http::date::parse_http_date(s);
        let _ = transport::http::date::parse_retry_after(s);
    }
});
