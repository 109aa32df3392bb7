//! An epoll-based readiness-loop runtime for the transport servers.
//!
//! Three layers, bottom-up:
//!
//! * [`poll`] — a thin safe wrapper over level-triggered `epoll`
//!   (declared directly against the syscalls; no new dependencies).
//! * `conn` (crate-private) — resumable per-connection state machines
//!   for framed-TCP and HTTP/1.1 (with keep-alive and pipelining),
//!   owning all parse state and the pooled-buffer discipline.
//! * `server` — the runtime: a blocking acceptor shard feeding N
//!   event-loop workers over wakered inboxes, loop-maintained deadlines,
//!   and bounded-drain shutdown. Its running handle is
//!   [`crate::Server`], the one type every `serve_*` returns.
//! * `overload` (crate-private) — admission control and load shedding: the
//!   connection cap the acceptor enforces (pause-accept or
//!   accept-then-reject), the inflight/queue-delay signal drivers consult
//!   before dispatching a request, and the whole-message deadline that
//!   kills slow-loris peers. Configured per server via
//!   [`crate::OverloadConfig`].
//!
//! [`crate::ServerBuilder`] is the only way in: its `serve_*` finishes
//! hand the framed-TCP or HTTP driver factory to `server`.

pub mod poll;

pub(crate) mod conn;
pub(crate) mod overload;
pub(crate) mod server;

pub use overload::OverloadConfig;
pub use poll::{Event, Events, Interest, Poller, Waker};
