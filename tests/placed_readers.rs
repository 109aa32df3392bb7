//! The client reply readers with a placing receiver: a typed BXSA reply
//! read through `FramedStream::recv_to` or `HttpResponse::read_to` into a
//! `bxsa::Scatter`, its large arrays straight into typed slots.
//!
//! However the peer's bytes are split — inside the length prefix or the
//! HTTP head, inside an array head, inside a payload, one byte at a time
//! — the decode gives the same arrays. A hostile peer costs no more than
//! one receive chunk of slot, and a reply whose frames outrun its
//! declared length is refused.

use std::io::{BufReader, Read, Write};

use bxsoap::VerifyRequest;
use soap::{BxsaEncoding, TypedDecode, TypedEncoding, TypedScratch};
use transport::{BodySink, FramedStream, HttpResponse, TransportError};

/// The transports' receive step, which bounds slot growth per read.
const RECV_CHUNK: usize = 1 << 20;

/// A `Scatter` as the readers' sink.
#[derive(Default)]
struct Sink(bxsa::Scatter);

impl BodySink for Sink {
    fn begin(&mut self, len: usize) {
        self.0.begin(len);
    }

    fn next_buf(&mut self, max: usize) -> &mut [u8] {
        self.0.next_buf(max)
    }

    fn filled(&mut self, n: usize) {
        self.0.filled(n);
    }

    fn whole(&mut self) -> &mut Vec<u8> {
        self.0.whole()
    }
}

/// A peer that sends `bytes` and then closes: each read stops at the
/// next cut (every byte is a cut when `one_byte`).
struct Scripted {
    bytes: Vec<u8>,
    at: usize,
    cuts: Vec<usize>,
    one_byte: bool,
}

impl Scripted {
    fn new(bytes: Vec<u8>, cuts: &[usize], one_byte: bool) -> Scripted {
        let mut cuts = cuts.to_vec();
        cuts.sort_unstable();
        Scripted {
            bytes,
            at: 0,
            cuts,
            one_byte,
        }
    }
}

impl Read for Scripted {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        let mut end = self.bytes.len();
        if let Some(&cut) = self.cuts.iter().find(|&&c| c > self.at) {
            end = end.min(cut);
        }
        if self.one_byte {
            end = end.min(self.at + 1);
        }
        let n = (end - self.at).min(out.len());
        out[..n].copy_from_slice(&self.bytes[self.at..self.at + n]);
        self.at += n;
        Ok(n)
    }
}

impl Write for Scripted {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A typed `Verify` reply body of `pairs` pairs in the machine's order.
fn reply(pairs: usize) -> (VerifyRequest, Vec<u8>) {
    let (index, values) = bxsoap::lead_dataset(pairs, 3);
    let msg = VerifyRequest { index, values };
    let mut bytes = Vec::new();
    BxsaEncoding::native_order()
        .encode_typed(&msg, None, &mut TypedScratch::default(), &mut bytes)
        .unwrap();
    (msg, bytes)
}

fn framed(body: &[u8]) -> Vec<u8> {
    let mut wire = (body.len() as u32).to_be_bytes().to_vec();
    wire.extend_from_slice(body);
    wire
}

/// An HTTP 200 head declaring `len` body bytes.
fn http_head(len: usize) -> Vec<u8> {
    format!(
        "HTTP/1.1 200 OK\r\nContent-Type: application/bxsa\r\nContent-Length: {len}\r\n\
         Connection: keep-alive\r\n\r\n"
    )
    .into_bytes()
}

fn http(body: &[u8]) -> Vec<u8> {
    let mut wire = http_head(body.len());
    wire.extend_from_slice(body);
    wire
}

/// Read one reply off `peer` into `sink` with the framed or the HTTP
/// reader.
fn receive(peer: Scripted, http: bool, sink: &mut Sink) -> transport::TransportResult<()> {
    if http {
        let mut head = HttpResponse::empty();
        HttpResponse::read_to(&mut BufReader::new(peer), &mut head, sink)?;
        assert_eq!(head.status, 200);
        Ok(())
    } else {
        FramedStream::new(peer).recv_to(sink)
    }
}

/// Decode the received reply as a `Verify`.
fn decode(sink: &mut Sink) -> soap::SoapResult<VerifyRequest> {
    let mut out = VerifyRequest::default();
    match BxsaEncoding::native_order().decode_placed_reply(&mut sink.0, &mut out)? {
        TypedDecode::Matched => Ok(out),
        TypedDecode::Fallback => Err(soap::SoapError::Protocol("fell back".into())),
    }
}

/// Where `needle` (at least 16 bytes) starts in `hay`.
fn find(hay: &[u8], needle: &[u8]) -> usize {
    hay.windows(16)
        .position(|w| w == &needle[..16])
        .expect("the payload is in the reply")
}

#[test]
fn every_split_gives_the_same_arrays() {
    let (msg, body) = reply(5000);
    let index_at = find(&body, xbs::prim::bytes_of(&msg.index));
    let values_at = find(&body, xbs::prim::bytes_of(&msg.values));
    for http in [false, true] {
        let (head, wire) = if http {
            (http_head(body.len()).len(), self::http(&body))
        } else {
            (4, framed(&body))
        };
        let cuts = [
            vec![head / 2],
            vec![head + index_at - 2],
            vec![head + index_at + 1001],
            vec![head + values_at - 1, head + values_at + 3],
            vec![head + values_at + 8000],
            (0..wire.len()).step_by(4093).collect(),
        ];
        let mut sink = Sink::default();
        for (cuts, one_byte) in cuts.iter().map(|c| (c, false)).chain([(&vec![], true)]) {
            receive(Scripted::new(wire.clone(), cuts, one_byte), http, &mut sink).unwrap();
            assert_eq!(
                sink.0.placed_bytes(),
                5000 * 12,
                "http {http} cuts {cuts:?}"
            );
            let got = decode(&mut sink).unwrap();
            assert!(
                got.index == msg.index && got.values == msg.values,
                "http {http} cuts {cuts:?} one byte {one_byte}"
            );
        }
    }
}

/// A reply declaring a 200 MiB array, of which the peer sends a few
/// bytes before closing, grows its slot by at most one receive chunk
/// past the bytes received, not by the declared size. (A `Vec` grows by
/// doubling, so once it has grown its capacity may reach twice that, as
/// the flat reader's buffer may.)
#[test]
fn a_peer_that_closes_inside_a_huge_array_costs_one_chunk() {
    let n = 25 << 20; // f64s: 200 MiB
    let mut w = bxsa::FrameWriter::new(xbs::ByteOrder::native());
    let body = bxsa::estimate::plain_array_body_bound("v", &[], xbs::TypeCode::F64, n);
    let mut head = Vec::new();
    // Only the frame heads are written: the payload is left out.
    w.set_gather(true);
    w.begin_document(&mut head, 1, bxsa::FrameWriter::document_bound(body));
    let values = vec![0.0f64; n];
    w.array(bxsa::TypedName::new(None, "v"), &[], &values)
        .unwrap();
    w.finish_document(&mut head).unwrap();
    drop(values);
    let len = head.len() + w.deferred_bytes();
    // 64 payload bytes: the walk has not placed the array yet. 8 KiB: it
    // has, and the slot is growing.
    for (extra, bound, placed) in [
        (64, RECV_CHUNK, 0),
        (8192, 2 * (RECV_CHUNK + 16 * 1024), n * 8),
    ] {
        let mut sent = head.clone();
        sent.resize(head.len() + extra, 0);
        for http in [false, true] {
            let mut wire = if http {
                http_head(len)
            } else {
                (len as u32).to_be_bytes().to_vec()
            };
            wire.extend_from_slice(&sent);
            let mut sink = Sink::default();
            let err = receive(Scripted::new(wire, &[], false), http, &mut sink).unwrap_err();
            assert!(matches!(err, TransportError::ConnectionClosed), "{err:?}");
            assert_eq!(sink.0.placed_bytes(), placed, "{extra} bytes sent");
            let held = sink.0.capacity();
            assert!(
                held <= bound,
                "http {http}, {extra} bytes sent: {held} bytes held"
            );
        }
    }
}

/// A reply whose frames claim more bytes than its declared length is
/// refused, and none of it is placed.
#[test]
fn an_array_past_the_declared_length_is_refused() {
    let (_, body) = reply(5000);
    let cut = &body[..body.len() - 100];
    for http in [false, true] {
        let wire = if http { self::http(cut) } else { framed(cut) };
        let mut sink = Sink::default();
        receive(Scripted::new(wire, &[], false), http, &mut sink).unwrap();
        assert_eq!(sink.0.placed_bytes(), 0);
        assert!(decode(&mut sink).is_err());
        assert!(sink.0.capacity() <= 2 * body.len());
    }
}
