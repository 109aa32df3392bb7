//! Length-prefixed message framing over a byte stream.
//!
//! The raw-TCP SOAP binding needs message boundaries; a 4-byte big-endian
//! length prefix is the entire protocol — "the TCP binding will just dump
//! the serialization directly to a TCP connection" (paper §5.3).

use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use crate::deadline::Timeouts;
use crate::error::{TransportError, TransportResult};
use crate::iovec::write_all_parts;

/// Upper bound on a single frame (256 MiB) — large enough for the paper's
/// 64 MB experiments with headroom, small enough to stop a hostile length
/// prefix from driving allocation.
pub const MAX_FRAME_LEN: usize = 256 << 20;

/// Receive-side allocation step: the payload buffer grows by at most this
/// much per read, so a hostile length prefix claiming gigabytes costs at
/// most one chunk of memory before the truncated stream is detected.
pub(crate) const RECV_CHUNK: usize = 1 << 20;

/// Read exactly `len` bytes into `buf` with `read_exact`, in chunks.
///
/// The bytes a reused buffer already holds are overwritten in place, so
/// only growth past its current length is zero-filled, and it grows at
/// most [`RECV_CHUNK`] past the bytes actually received: a declared
/// length far larger than the stream costs one chunk of allocation
/// before the truncation error, not the declared amount. On error `buf`
/// holds just the chunks read in full; on success exactly `len` bytes.
pub(crate) fn read_len_into<E>(
    len: usize,
    buf: &mut Vec<u8>,
    mut read_exact: impl FnMut(&mut [u8]) -> Result<(), E>,
) -> Result<(), E> {
    let mut filled = 0;
    while filled < len {
        let target = len.min(filled + RECV_CHUNK);
        if buf.len() < target {
            buf.resize(target, 0);
        }
        if let Err(e) = read_exact(&mut buf[filled..target]) {
            buf.truncate(filled);
            return Err(e);
        }
        filled = target;
    }
    buf.truncate(len);
    Ok(())
}

/// Where a received body's bytes go as they arrive. The client reply
/// readers ([`FramedStream::recv_to`],
/// [`HttpConnection::exchange_with_to`](crate::HttpConnection::exchange_with_to))
/// read a declared-length body through it, so a receiver can put each
/// part of the body where it is going to be used instead of into one
/// buffer.
pub trait BodySink {
    /// A body of `len` bytes (already checked against the frame cap)
    /// follows.
    fn begin(&mut self, len: usize);
    /// Where the next bytes go: at most `max` bytes, and the sink's
    /// storage grows by no more than that. Empty once the body is in.
    fn next_buf(&mut self, max: usize) -> &mut [u8];
    /// `n` bytes arrived at the front of the last
    /// [`next_buf`](BodySink::next_buf).
    fn filled(&mut self, n: usize);
    /// The buffer a body is taken into whole instead (contents replaced):
    /// a chunked body, or a reader that only fills one buffer.
    fn whole(&mut self) -> &mut Vec<u8>;
}

/// Read a `len`-byte body into `sink`, each piece with `read` (which
/// returns 0 when the peer has closed). The sink's storage grows by at
/// most [`RECV_CHUNK`] past the bytes received, as in [`read_len_into`].
pub(crate) fn read_len_to(
    len: usize,
    sink: &mut dyn BodySink,
    mut read: impl FnMut(&mut [u8]) -> std::io::Result<usize>,
) -> std::io::Result<bool> {
    sink.begin(len);
    loop {
        let buf = sink.next_buf(RECV_CHUNK);
        if buf.is_empty() {
            return Ok(true);
        }
        match read(buf) {
            Ok(0) => return Ok(false),
            Ok(n) => sink.filled(n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// A framed message stream over any `Read + Write` (usually a
/// [`TcpStream`]).
#[derive(Debug)]
pub struct FramedStream<S = TcpStream> {
    inner: S,
    /// Configured read budget, reported in [`TransportError::TimedOut`]
    /// when the underlying stream signals a timeout.
    read_budget: Option<Duration>,
    /// Configured write budget, likewise.
    write_budget: Option<Duration>,
}

impl FramedStream<TcpStream> {
    /// Connect to a framed-TCP peer (no timeouts: block indefinitely).
    pub fn connect(addr: &str) -> TransportResult<FramedStream<TcpStream>> {
        FramedStream::connect_with(addr, &Timeouts::none())
    }

    /// Connect with per-phase time budgets. Connection-establishment
    /// failures (refused, unreachable, handshake timeout) surface as
    /// [`TransportError::ConnectFailed`] — the retry-safe class, since no
    /// request bytes can have been written yet.
    pub fn connect_with(addr: &str, timeouts: &Timeouts) -> TransportResult<FramedStream<TcpStream>> {
        let stream = connect_stream(addr, timeouts.connect)?;
        stream.set_nodelay(true)?;
        let mut fs = FramedStream::new(stream);
        fs.set_read_timeout(timeouts.read)?;
        fs.set_write_timeout(timeouts.write)?;
        Ok(fs)
    }

    /// Set (or clear) the per-read time budget on the underlying socket.
    pub fn set_read_timeout(&mut self, budget: Option<Duration>) -> TransportResult<()> {
        self.inner.set_read_timeout(budget)?;
        self.read_budget = budget;
        Ok(())
    }

    /// Set (or clear) the per-write time budget on the underlying socket.
    pub fn set_write_timeout(&mut self, budget: Option<Duration>) -> TransportResult<()> {
        self.inner.set_write_timeout(budget)?;
        self.write_budget = budget;
        Ok(())
    }
}

/// `TcpStream::connect` with an optional budget, resolving `addr` and
/// classifying every failure as [`TransportError::ConnectFailed`].
pub(crate) fn connect_stream(addr: &str, budget: Option<Duration>) -> TransportResult<TcpStream> {
    let fail = |source: std::io::Error| TransportError::ConnectFailed {
        addr: addr.to_owned(),
        source,
    };
    match budget {
        None => TcpStream::connect(addr).map_err(fail),
        Some(budget) => {
            let mut last = None;
            for sock_addr in addr.to_socket_addrs().map_err(fail)? {
                match TcpStream::connect_timeout(&sock_addr, budget) {
                    Ok(s) => return Ok(s),
                    Err(e) => last = Some(e),
                }
            }
            Err(fail(last.unwrap_or_else(|| {
                std::io::Error::new(std::io::ErrorKind::InvalidInput, "address resolved to nothing")
            })))
        }
    }
}

impl<S: Read + Write> FramedStream<S> {
    /// Wrap an existing stream.
    pub fn new(inner: S) -> FramedStream<S> {
        FramedStream {
            inner,
            read_budget: None,
            write_budget: None,
        }
    }

    /// Consume the wrapper, returning the underlying stream.
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// Note the budgets a caller configured on the stream itself (for
    /// non-`TcpStream` transports whose timeouts are set out of band), so
    /// timeout errors report them.
    pub fn assume_budgets(&mut self, read: Option<Duration>, write: Option<Duration>) {
        self.read_budget = read;
        self.write_budget = write;
    }

    /// Translate a raw I/O error: socket-timeout kinds become the typed
    /// [`TransportError::TimedOut`] with the elapsed/budget pair.
    fn io_err(e: std::io::Error, started: Instant, budget: Option<Duration>) -> TransportError {
        if TransportError::io_is_timeout(&e) {
            TransportError::TimedOut {
                elapsed: started.elapsed(),
                budget: budget.unwrap_or_default(),
            }
        } else {
            TransportError::Io(e)
        }
    }

    /// Send one message.
    ///
    /// Length prefix and payload go out in a single vectored write, so a
    /// message costs one syscall and the payload buffer is never copied
    /// into a frame-assembly buffer.
    pub fn send(&mut self, payload: &[u8]) -> TransportResult<()> {
        self.send_parts(&[payload])
    }

    /// Send one message whose payload is `parts` concatenated: the
    /// length prefix and every part go out in one gather write, so a
    /// payload spread over several buffers is never assembled first.
    pub fn send_parts(&mut self, parts: &[&[u8]]) -> TransportResult<()> {
        let len: usize = parts.iter().map(|p| p.len()).sum();
        if len > MAX_FRAME_LEN {
            return Err(TransportError::FrameTooLarge {
                declared: len as u64,
            });
        }
        let started = Instant::now();
        let prefix = (len as u32).to_be_bytes();
        write_all_parts(&mut self.inner, &prefix, parts)
            .and_then(|()| self.inner.flush())
            .map_err(|e| Self::io_err(e, started, self.write_budget))
    }

    /// Receive one message.
    pub fn recv(&mut self) -> TransportResult<Vec<u8>> {
        let mut payload = Vec::new();
        self.recv_into(&mut payload)?;
        Ok(payload)
    }

    /// Receive one message into a caller-provided buffer (cleared first,
    /// capacity kept) — the allocation-free path for servers cycling one
    /// buffer per connection.
    pub fn recv_into(&mut self, payload: &mut Vec<u8>) -> TransportResult<()> {
        let started = Instant::now();
        let mut len_bytes = [0u8; 4];
        self.read_exact_or_closed(started, &mut len_bytes)?;
        self.recv_payload(started, u32::from_be_bytes(len_bytes), payload)
    }

    /// [`recv_into`](FramedStream::recv_into) with the payload read
    /// through `sink` as it arrives.
    pub fn recv_to(&mut self, sink: &mut dyn BodySink) -> TransportResult<()> {
        let started = Instant::now();
        let mut len_bytes = [0u8; 4];
        self.read_exact_or_closed(started, &mut len_bytes)?;
        let len = u32::from_be_bytes(len_bytes) as usize;
        if len > MAX_FRAME_LEN {
            return Err(TransportError::FrameTooLarge {
                declared: len as u64,
            });
        }
        match read_len_to(len, sink, |buf| self.inner.read(buf)) {
            Ok(true) => Ok(()),
            Ok(false) => Err(TransportError::ConnectionClosed),
            Err(e) => Err(Self::io_err(e, started, self.read_budget)),
        }
    }

    /// Try to receive; returns `None` on a clean EOF at a message
    /// boundary (peer hung up between messages).
    pub fn recv_optional(&mut self) -> TransportResult<Option<Vec<u8>>> {
        let mut payload = Vec::new();
        Ok(self.recv_optional_into(&mut payload)?.then_some(payload))
    }

    /// [`recv_into`](FramedStream::recv_into) with clean-EOF detection:
    /// `Ok(false)` (buffer cleared) when the peer hung up between
    /// messages, `Ok(true)` when a message was read into `payload`.
    pub fn recv_optional_into(&mut self, payload: &mut Vec<u8>) -> TransportResult<bool> {
        let started = Instant::now();
        let mut len_bytes = [0u8; 4];
        let mut filled = 0;
        while filled < 4 {
            match self.inner.read(&mut len_bytes[filled..]) {
                Ok(0) if filled == 0 => {
                    payload.clear();
                    return Ok(false);
                }
                Ok(0) => return Err(TransportError::ConnectionClosed),
                Ok(n) => filled += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(Self::io_err(e, started, self.read_budget)),
            }
        }
        self.recv_payload(started, u32::from_be_bytes(len_bytes), payload)?;
        Ok(true)
    }

    /// Read a declared-length payload into `payload` with
    /// [`read_len_into`].
    fn recv_payload(
        &mut self,
        started: Instant,
        len: u32,
        payload: &mut Vec<u8>,
    ) -> TransportResult<()> {
        let len = len as usize;
        if len > MAX_FRAME_LEN {
            return Err(TransportError::FrameTooLarge {
                declared: len as u64,
            });
        }
        read_len_into(len, payload, |chunk| self.read_exact_or_closed(started, chunk))
    }

    fn read_exact_or_closed(&mut self, started: Instant, buf: &mut [u8]) -> TransportResult<()> {
        match self.inner.read_exact(buf) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
                Err(TransportError::ConnectionClosed)
            }
            Err(e) => Err(Self::io_err(e, started, self.read_budget)),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::io::Cursor;

    /// An in-memory duplex pipe for exercising framing without sockets.
    struct Pipe {
        buf: Cursor<Vec<u8>>,
    }

    impl Pipe {
        fn new() -> Pipe {
            Pipe {
                buf: Cursor::new(Vec::new()),
            }
        }
        fn rewind(&mut self) {
            self.buf.set_position(0);
        }
    }

    impl Read for Pipe {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            self.buf.read(out)
        }
    }

    impl Write for Pipe {
        fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
            self.buf.write(data)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn frame_roundtrip() {
        let mut fs = FramedStream::new(Pipe::new());
        fs.send(b"hello").unwrap();
        fs.send(b"").unwrap();
        fs.send(&[7u8; 1000]).unwrap();
        fs.inner.rewind();
        assert_eq!(fs.recv().unwrap(), b"hello");
        assert_eq!(fs.recv().unwrap(), b"");
        assert_eq!(fs.recv().unwrap(), vec![7u8; 1000]);
    }

    #[test]
    fn oversize_recv_rejected_without_io() {
        // A declared length beyond MAX_FRAME_LEN fails before any payload
        // byte is read or allocated.
        let mut fs = FramedStream::new(Pipe::new());
        fs.inner.write_all(&u32::MAX.to_be_bytes()).unwrap();
        fs.inner.rewind();
        assert!(matches!(
            fs.recv(),
            Err(TransportError::FrameTooLarge { .. })
        ));
    }

    #[test]
    fn oversize_send_rejected_without_io() {
        // The send side enforces the same cap before writing anything.
        // (A zeroed Vec this size is cheap: pages are committed lazily.)
        let mut fs = FramedStream::new(Pipe::new());
        let huge = vec![0u8; MAX_FRAME_LEN + 1];
        assert!(matches!(
            fs.send(&huge),
            Err(TransportError::FrameTooLarge { declared }) if declared == (MAX_FRAME_LEN + 1) as u64
        ));
        assert!(
            fs.inner.buf.get_ref().is_empty(),
            "nothing may reach the stream"
        );
    }

    #[test]
    fn max_len_boundary_is_accepted_not_rejected() {
        // Boundary: a declared length of exactly MAX_FRAME_LEN passes the
        // size check (the truncated stream then reads as a clean
        // ConnectionClosed, NOT FrameTooLarge) — and thanks to chunked
        // reads this doesn't commit 256 MiB to find out.
        let mut fs = FramedStream::new(Pipe::new());
        fs.inner
            .write_all(&(MAX_FRAME_LEN as u32).to_be_bytes())
            .unwrap();
        fs.inner.rewind();
        assert!(matches!(fs.recv(), Err(TransportError::ConnectionClosed)));
    }

    #[test]
    fn truncated_payload_is_connection_closed() {
        let mut fs = FramedStream::new(Pipe::new());
        fs.inner.write_all(&10u32.to_be_bytes()).unwrap();
        fs.inner.write_all(b"abc").unwrap(); // only 3 of 10 bytes
        fs.inner.rewind();
        assert!(matches!(fs.recv(), Err(TransportError::ConnectionClosed)));
    }

    #[test]
    fn huge_declared_length_with_tiny_stream_stays_cheap() {
        // Declared 64 MiB, 3 bytes present: must fail as a truncation
        // without allocating anywhere near the declared length.
        let mut fs = FramedStream::new(Pipe::new());
        fs.inner.write_all(&(64u32 << 20).to_be_bytes()).unwrap();
        fs.inner.write_all(b"abc").unwrap();
        fs.inner.rewind();
        let mut payload = Vec::new();
        assert!(matches!(
            fs.recv_into(&mut payload),
            Err(TransportError::ConnectionClosed)
        ));
        assert!(
            payload.capacity() <= 2 * RECV_CHUNK,
            "allocation {} must stay chunk-bounded, not follow the declared 64 MiB",
            payload.capacity()
        );
    }

    /// Replies of every size through one reused buffer: large, tiny,
    /// empty, half a chunk, large. The large ones span several
    /// [`RECV_CHUNK`]s.
    pub(crate) fn reply_sequence() -> Vec<Vec<u8>> {
        let large: Vec<u8> = (0..3 * RECV_CHUNK as u32 + 17)
            .map(|i| (i % 251) as u8)
            .collect();
        let mut other_large = large.clone();
        other_large.reverse();
        vec![large, b"tiny".to_vec(), Vec::new(), vec![0x5a; RECV_CHUNK / 2], other_large]
    }

    /// The client-side twin of the reactor's no-stale-tail test: a
    /// buffer reused across replies is overwritten in place, and each
    /// read must still return exactly its own bytes.
    #[test]
    fn reused_buffer_reads_carry_no_stale_tail() {
        let replies = reply_sequence();
        let mut fs = FramedStream::new(Pipe::new());
        for reply in &replies {
            fs.send(reply).unwrap();
        }
        fs.inner.rewind();
        let mut payload = Vec::new();
        for reply in &replies {
            fs.recv_into(&mut payload).unwrap();
            assert!(payload == *reply, "{}-byte reply", reply.len());
        }
    }

    #[test]
    fn recv_optional_clean_eof() {
        let mut fs = FramedStream::new(Pipe::new());
        fs.send(b"x").unwrap();
        fs.inner.rewind();
        assert_eq!(fs.recv_optional().unwrap(), Some(b"x".to_vec()));
        assert_eq!(fs.recv_optional().unwrap(), None);
    }

    #[test]
    fn recv_optional_partial_prefix_is_error() {
        let mut fs = FramedStream::new(Pipe::new());
        fs.inner.write_all(&[0u8, 0]).unwrap(); // half a length prefix
        fs.inner.rewind();
        assert!(matches!(
            fs.recv_optional(),
            Err(TransportError::ConnectionClosed)
        ));
    }

    #[test]
    fn real_socket_roundtrip() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut fs = FramedStream::new(stream);
            let msg = fs.recv().unwrap();
            fs.send(&msg).unwrap(); // echo
        });
        let mut client = FramedStream::connect(&addr.to_string()).unwrap();
        client.send(b"ping around the loopback").unwrap();
        assert_eq!(client.recv().unwrap(), b"ping around the loopback");
        server.join().unwrap();
    }

    #[test]
    fn connect_refused_is_typed() {
        // Port 1 is essentially never listening.
        match FramedStream::connect_with("127.0.0.1:1", &Timeouts::none()) {
            Err(TransportError::ConnectFailed { addr, .. }) => {
                assert_eq!(addr, "127.0.0.1:1");
            }
            other => panic!("expected ConnectFailed, got {other:?}"),
        }
    }

    #[test]
    fn read_timeout_surfaces_as_timed_out() {
        // A server that accepts and then goes silent.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let hold = std::thread::spawn(move || listener.accept().map(|(s, _)| s));
        let budget = Duration::from_millis(40);
        let mut client = FramedStream::connect_with(
            &addr.to_string(),
            &Timeouts {
                connect: Some(Duration::from_secs(5)),
                read: Some(budget),
                write: Some(Duration::from_secs(5)),
            },
        )
        .unwrap();
        client.send(b"anyone there?").unwrap();
        match client.recv() {
            Err(TransportError::TimedOut { elapsed, budget: b }) => {
                assert_eq!(b, budget);
                assert!(elapsed >= budget, "elapsed {elapsed:?} < budget {budget:?}");
            }
            other => panic!("expected TimedOut, got {other:?}"),
        }
        drop(client);
        let _ = hold.join();
    }
}
