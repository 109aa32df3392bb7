//! Gathered replies: a reply's large pieces go to the socket straight
//! from the handler's memory.
//!
//! A handler that holds its reply's bulk bytes somewhere of its own (the
//! arrays of a typed response, say) need not copy them into the
//! connection's reply buffer first. Once it knows the reply's length, it
//! asks for a [`GatherSink`] — [`ReplyControl::gather`] on framed TCP,
//! [`Reply::gather`](crate::Reply::gather) on HTTP — and hands it the
//! reply in order, piece by piece. The sink writes each piece with one
//! non-blocking vectored write, the transport's framing (the length
//! prefix, or the HTTP head) going out with the first. Whatever the
//! socket does not take is copied into a spill buffer the connection
//! keeps, and from then on every later piece is too; once the handler
//! returns, the connection's ordinary write phase sends the spill in
//! place of the reply buffer the handler was given. So the bytes on the
//! wire are the same however the socket splits them.
//!
//! The time spent in these writes is the connection's, not the
//! handler's: it is left out of the handler-latency histogram and the
//! overload signal.
//!
//! [`ReplyControl::gather`]: crate::ReplyControl::gather

use std::io::{ErrorKind, IoSlice, Write};
use std::time::{Duration, Instant};

/// The socket side of a handler's [`ReplyControl`](crate::ReplyControl)
/// on a live connection.
pub(crate) struct ReplyConn<'c> {
    pub io: &'c mut (dyn Write + Send),
    pub framing: Framing<'c>,
    /// Where a gather copies what the socket does not take; the
    /// connection writes it out as the rest of the reply.
    pub spill: &'c mut Vec<u8>,
    pub gathered: Gathered,
}

/// Where a connection's framing for a gathered reply goes.
pub(crate) enum Framing<'c> {
    /// Framed TCP: the 4-byte big-endian length prefix.
    Prefix(&'c mut [u8; 4]),
    /// HTTP/1.1: the response head, and whether the connection may stay
    /// open after this reply.
    Http {
        head: &'c mut Vec<u8>,
        keep_alive: bool,
    },
}

/// How a gathered reply went: what the connection needs to finish it.
#[derive(Debug, Default)]
pub(crate) struct Gathered {
    /// A gather was started (its framing is staged).
    pub started: bool,
    /// The reply length the handler declared (framing excluded).
    pub len: usize,
    /// Reply bytes the handler has handed over so far.
    pub put: usize,
    /// Length of the framing ahead of the reply.
    pub framing_len: usize,
    /// Bytes on the wire so far, framing included.
    pub sent: usize,
    /// The socket stopped taking bytes: the rest is in the spill buffer.
    pub spilled: bool,
    /// A write failed; the connection cannot carry this reply.
    pub error: Option<std::io::Error>,
    /// Time spent in write calls.
    pub write_time: Duration,
    /// HTTP: the disposition the head announced.
    pub keep_alive: bool,
}

impl Gathered {
    /// Where the connection's write phase resumes over (framing, spill
    /// buffer), or the error that ends the connection: a failed write,
    /// or a reply that did not come to the length the framing declared.
    pub fn resume_at(self) -> std::io::Result<usize> {
        if let Some(e) = self.error {
            return Err(e);
        }
        if self.put != self.len {
            return Err(std::io::Error::other(format!(
                "a gathered reply ended after {} of its {} bytes",
                self.put, self.len
            )));
        }
        Ok(self.sent.min(self.framing_len))
    }
}

/// A reply on its way to the socket from the handler's memory: hand it
/// the reply in order with [`put`](GatherSink::put). See the
/// [module docs](self).
///
/// The handler must hand over exactly the length it declared; a reply
/// that ends short or runs long is never completed — the connection
/// closes and counts an error, so the peer never sees a wrong message.
pub struct GatherSink<'s> {
    pub(crate) io: &'s mut (dyn Write + Send),
    /// The framing bytes, sent ahead of the first piece.
    pub(crate) framing: &'s [u8],
    /// The connection's spill buffer, which receives what the socket
    /// does not take.
    pub(crate) spill: &'s mut Vec<u8>,
    pub(crate) gathered: &'s mut Gathered,
}

impl GatherSink<'_> {
    /// Send `head`, then `payload`, the next bytes of the reply (either
    /// may be empty): one non-blocking vectored write, with the framing
    /// ahead of the first piece. What the socket does not take is copied
    /// into the spill buffer, and so is every later piece.
    pub fn put(&mut self, head: &[u8], payload: &[u8]) {
        let g = &mut *self.gathered;
        g.put += head.len() + payload.len();
        if g.error.is_some() {
            return;
        }
        if g.put > g.len {
            g.error = Some(std::io::Error::other(
                "a gathered reply ran past its length",
            ));
            return;
        }
        let framing = &self.framing[g.sent.min(self.framing.len())..];
        let pieces = [framing, head, payload];
        let total: usize = pieces.iter().map(|p| p.len()).sum();
        let mut done = 0;
        if !g.spilled {
            let started = Instant::now();
            while done < total {
                let mut bufs = [IoSlice::new(&[]); 3];
                let mut skip = done;
                for (slot, piece) in bufs.iter_mut().zip(pieces) {
                    let from = skip.min(piece.len());
                    skip -= from;
                    *slot = IoSlice::new(&piece[from..]);
                }
                match self.io.write_vectored(&bufs) {
                    Ok(0) => {
                        g.error = Some(ErrorKind::WriteZero.into());
                        break;
                    }
                    Ok(n) => done += n,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) => {
                        g.error = Some(e);
                        break;
                    }
                }
            }
            g.write_time += started.elapsed();
            g.sent += done;
            if g.error.is_some() {
                return;
            }
            g.spilled = done < total;
        }
        // The framing's unsent rest stays where the connection keeps it;
        // only reply bytes are spilled.
        let mut skip = done.saturating_sub(framing.len());
        for piece in [head, payload] {
            let from = skip.min(piece.len());
            skip -= from;
            self.spill.extend_from_slice(&piece[from..]);
        }
    }
}
