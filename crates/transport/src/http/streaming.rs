//! Server-side hooks for streamed (chunked) requests.
//!
//! When a request arrives with `Transfer-Encoding: chunked`, the
//! reactor's HTTP driver consults the server's [`StreamFactory`] (set
//! via [`crate::ServerBuilder::stream_factory`]). A factory that
//! recognizes the request returns a [`StreamSession`]; the driver then
//! feeds it one part per chunk as chunks complete, asks it to `finish`
//! when the terminator arrives, and — when the reply is streamed —
//! pulls reply parts on demand, writing each as one chunk and never
//! buffering more than a write window ahead (backpressure: a slow
//! client pauses the pull, not the worker).
//!
//! Requests the factory declines (or when no factory is set) fall back
//! to buffered service: the body is de-chunked into the ordinary
//! request buffer and dispatched to the regular handler, so plain
//! handlers interoperate with streaming clients transparently.

use std::sync::Arc;

use crate::error::TransportResult;
use crate::http::response::HttpResponse;
use crate::http::server::RequestHead;

/// The most bytes one streamed part (one chunk) may carry, on every node:
/// the server refuses a longer request chunk with `413` before its part
/// buffer grows to match, and a streaming client refuses to send or
/// receive a longer part. A payload bigger than this is split into more
/// parts, not a bigger one.
pub const MAX_PART_LEN: usize = 4 * 1024 * 1024;

/// What a [`StreamSession`] answers with once the request terminator has
/// been consumed.
pub enum StreamReply {
    /// Stream the reply: the response's head goes out with
    /// `Transfer-Encoding: chunked` (its `body` field is ignored) and
    /// parts are pulled via [`StreamSession::next_part`], one chunk each.
    Streamed(HttpResponse),
    /// Send a complete buffered response (faults, small replies).
    Buffered(HttpResponse),
}

/// One streamed exchange on one connection.
///
/// Sessions are created on the event-loop worker that owns the
/// connection and never migrate, so they need no `Send` — per-session
/// decode scratch follows the same discipline as connection-scoped
/// handler state.
pub trait StreamSession {
    /// One request part (the payload of one complete chunk) has arrived.
    /// Errors close the connection after a diagnostic response.
    fn on_part(&mut self, part: &[u8]) -> TransportResult<()>;

    /// The request terminator arrived: produce the reply.
    fn finish(&mut self) -> TransportResult<StreamReply>;

    /// Pull the next reply part into `out` (handed over cleared).
    /// `Ok(false)` ends the reply (the terminating chunk is written).
    /// Only called after [`finish`](StreamSession::finish) returned
    /// [`StreamReply::Streamed`].
    fn next_part(&mut self, out: &mut Vec<u8>) -> TransportResult<bool>;
}

/// Per-request decision hook, offered the head of each chunked request
/// before any body bytes exist: `None` falls back to buffered service.
pub type StreamFactory =
    Arc<dyn Fn(&RequestHead<'_>) -> Option<Box<dyn StreamSession>> + Send + Sync>;
