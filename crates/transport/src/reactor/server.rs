//! The readiness-loop runtime: one blocking acceptor shard feeding N
//! epoll workers.
//!
//! Thread count is fixed at bind time — the acceptor plus
//! `BX_SERVER_WORKERS` event loops — regardless of how many connections
//! arrive. Each worker owns a [`Poller`], a slab of connections, and the
//! drivers' non-`Send` handler state; the acceptor hands accepted sockets
//! over through a per-worker inbox (round-robin) and a [`Waker`].
//!
//! Timeouts are loop-maintained deadlines, not socket options: a
//! non-blocking socket never parks a thread, so the worker re-arms a
//! deadline after every driver step and scans for expiries on each loop
//! iteration (bounded by the ~100 ms poll tick). An expired connection
//! that is mid-message is a counted `timed_out` error, exactly like the
//! blocking servers' socket-timeout path; an expired *idle* connection
//! (a keep-alive peer gone quiet between requests) closes silently.

use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use super::conn::{ConnDriver, ConnIo, Wants};
use super::overload::{DriveCtx, Overload};
use super::poll::{raise_backlog, Events, Interest, Poller, Waker};
use crate::error::{TransportError, TransportResult};
use crate::faulty::{FaultingTransport, SharedInjector};
use crate::metrics::{self, ServerMetrics};

/// Poller token reserved for the worker's waker.
const WAKER_TOKEN: u64 = u64::MAX;

/// Deadline-scan granularity: the poll tick whenever connections exist.
const POLL_TICK: Duration = Duration::from_millis(100);

/// How often a paused acceptor re-checks for a free connection slot (and
/// the stop flag). Arrivals meanwhile wait in the kernel backlog.
const PAUSE_ACCEPT_TICK: Duration = Duration::from_millis(2);

/// How long a rejected socket lingers after its 503/fault went out, so
/// the close's FIN (not an RST racing unread request bytes) follows the
/// rejection to the peer.
const REJECT_LINGER: Duration = Duration::from_millis(250);

/// Bound on lingering rejected sockets — past it the oldest close early,
/// trading their rejection bytes for a bounded fd count under flood.
const REJECT_LINGER_SLOTS: usize = 512;

/// Listen backlog during connection ramps (the std default of 128 refuses
/// connects long before an event loop is saturated).
const ACCEPT_BACKLOG: i32 = 4096;

/// How long `shutdown()` lets in-flight connections finish before they
/// are dropped (and counted as `shutdown_drop`).
const DEFAULT_DRAIN: Duration = Duration::from_secs(1);

/// How the reactor serves one listener.
pub(crate) struct ReactorConfig {
    /// Budget for making read progress on an in-flight message (and the
    /// idle allowance for a connection between messages).
    pub read_timeout: Option<Duration>,
    /// Budget for draining a response to the peer.
    pub write_timeout: Option<Duration>,
    /// Metrics label (`"tcp"` / `"http"`) for error counters.
    pub transport: &'static str,
    /// The per-transport static metrics the drivers also update.
    pub metrics: &'static ServerMetrics,
    /// Wrap accepted sockets in a [`FaultingTransport`].
    pub injector: Option<SharedInjector>,
    /// Shared overload state: admission cap, shed signal, canned
    /// rejection payloads.
    pub overload: Arc<Overload>,
}

/// The factory workers use to build one driver per accepted connection.
/// Only the factory crosses threads; the driver (and any handler state
/// inside it) is created on its worker and never leaves.
pub(crate) type DriverFactory = Arc<dyn Fn() -> Box<dyn ConnDriver> + Send + Sync>;

/// A running server, framed TCP or HTTP: the acceptor, the event-loop
/// workers, and their shared stop and drain state. Built by
/// [`crate::ServerBuilder`]; dropping it shuts it down with the default
/// drain.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    errors: Arc<AtomicU64>,
    drain_until: Arc<Mutex<Option<Instant>>>,
    accept_thread: Option<JoinHandle<()>>,
    workers: Vec<WorkerHandle>,
}

/// A worker's handoff queue: accepted sockets with their accept stamp.
type Inbox = Arc<Mutex<VecDeque<(TcpStream, Instant)>>>;

struct WorkerHandle {
    join: JoinHandle<()>,
    inbox: Inbox,
    waker: Arc<Waker>,
}

/// Worker count: `BX_SERVER_WORKERS`, defaulting to the machine's
/// parallelism clamped to [1, 4] — event loops saturate cores, they don't
/// need one per thousand connections.
fn worker_count() -> usize {
    if let Ok(v) = std::env::var("BX_SERVER_WORKERS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.clamp(1, 64);
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, 4)
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Server {
    /// Bind `addr` and start the acceptor and workers. `factory` builds
    /// one [`ConnDriver`] per accepted connection, on the owning worker.
    pub(crate) fn start(
        addr: &str,
        config: ReactorConfig,
        factory: DriverFactory,
    ) -> TransportResult<Server> {
        let listener = TcpListener::bind(addr)?;
        if raise_backlog(&listener, ACCEPT_BACKLOG).is_err() {
            // Surfaced once: a refused backlog otherwise masquerades as
            // mysterious connect failures under flood.
            metrics::backlog_raise_failed(config.transport);
        }
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let errors = Arc::new(AtomicU64::new(0));
        let drain_until = Arc::new(Mutex::new(None));
        let overload = Arc::clone(&config.overload);
        let workers_n = worker_count();
        let worker_cap = overload.per_worker_cap(workers_n);

        let mut workers = Vec::new();
        for idx in 0..workers_n {
            // Poller and waker are created here, not on the worker, so a
            // resource failure surfaces as a bind error.
            let poller = Poller::new()?;
            let waker = Arc::new(Waker::new()?);
            poller.add(waker.fd(), WAKER_TOKEN, Interest::Readable)?;
            let inbox: Inbox = Arc::new(Mutex::new(VecDeque::new()));
            let ctx = WorkerCtx {
                poller,
                waker: Arc::clone(&waker),
                inbox: Arc::clone(&inbox),
                factory: Arc::clone(&factory),
                read_timeout: config.read_timeout,
                write_timeout: config.write_timeout,
                transport: config.transport,
                metrics: config.metrics,
                injector: config.injector.clone(),
                overload: Arc::clone(&overload),
                worker_cap,
                stop: Arc::clone(&stop),
                drain_until: Arc::clone(&drain_until),
                errors: Arc::clone(&errors),
            };
            let join = std::thread::Builder::new()
                .name(format!("evt-{}-{idx}", config.transport))
                .spawn(move || ctx.run(idx))
                .expect("spawn reactor worker");
            workers.push(WorkerHandle { join, inbox, waker });
        }

        let stop_accept = Arc::clone(&stop);
        let accept_metrics = config.metrics;
        let accept_overload = Arc::clone(&overload);
        let transport = config.transport;
        let shards: Vec<(Inbox, Arc<Waker>)> = workers
            .iter()
            .map(|w| (Arc::clone(&w.inbox), Arc::clone(&w.waker)))
            .collect();
        let accept_thread = std::thread::Builder::new()
            .name(format!("evt-{}-accept", config.transport))
            .spawn(move || {
                let at_cap = |o: &Overload| {
                    o.max_connections
                        .is_some_and(|cap| o.active() >= cap as i64)
                };
                let mut next = 0usize;
                // Rejected sockets linger briefly after the 503/fault is
                // written: closing with the peer's request bytes still
                // unread makes the kernel send RST, which can destroy the
                // rejection in flight before the peer reads it. Bounded in
                // both time and count, reaped on each accept.
                let mut parting: VecDeque<(Instant, TcpStream)> = VecDeque::new();
                'accept: loop {
                    while parting.len() >= REJECT_LINGER_SLOTS
                        || parting
                            .front()
                            .is_some_and(|(at, _)| at.elapsed() >= REJECT_LINGER)
                    {
                        parting.pop_front();
                    }
                    // Pause-accept admission: at the cap (and not in
                    // reject mode), leave arrivals in the kernel backlog
                    // until a slot frees. Only this thread admits, so
                    // once the gate opens it stays open through the
                    // accept below.
                    while !accept_overload.reject_when_full && at_cap(&accept_overload) {
                        if stop_accept.load(Ordering::Acquire) {
                            break 'accept;
                        }
                        std::thread::sleep(PAUSE_ACCEPT_TICK);
                    }
                    let Ok((stream, _)) = listener.accept() else {
                        if stop_accept.load(Ordering::Acquire) {
                            break;
                        }
                        continue;
                    };
                    if stop_accept.load(Ordering::Acquire) {
                        break;
                    }
                    accept_metrics.connections.inc();
                    if at_cap(&accept_overload) {
                        // Accept-then-reject: a canned, hint-carrying
                        // response goes out best-effort and the socket
                        // closes — the peer learns to back off instead of
                        // seeing a silent queue.
                        metrics::count_rejected(transport, "conn_cap");
                        if let Some(stream) = accept_overload.write_reject(stream) {
                            parting.push_back((Instant::now(), stream));
                        }
                        continue;
                    }
                    accept_overload.admit();
                    let (inbox, waker) = &shards[next % shards.len()];
                    next = next.wrapping_add(1);
                    lock(inbox).push_back((stream, Instant::now()));
                    waker.wake();
                }
            })
            .expect("spawn reactor accept thread");

        Ok(Server {
            addr: local,
            stop,
            errors,
            drain_until,
            accept_thread: Some(accept_thread),
            workers,
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections that ended with a transport error (truncated or
    /// oversize frame, malformed request, mid-read stall, reset) since
    /// the server started.
    pub fn error_count(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    /// Stop accepting and drain: in-flight messages get up to a short
    /// grace period to finish, idle connections close immediately.
    pub fn shutdown(self) {
        self.shutdown_within(DEFAULT_DRAIN);
    }

    /// [`shutdown`](Server::shutdown) with an explicit drain deadline.
    /// Connections still mid-message when it expires are dropped and
    /// counted as `bx_server_connection_errors_total{kind="shutdown_drop"}`.
    pub fn shutdown_within(mut self, drain: Duration) {
        self.drain(drain);
    }

    fn drain(&mut self, drain: Duration) {
        // Publish the drain deadline before the stop flag: a worker that
        // observes `stop` always finds the deadline already set.
        {
            let mut until = lock(&self.drain_until);
            if until.is_none() {
                *until = Some(Instant::now() + drain);
            }
        }
        if self.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        // Kick the blocking accept with a throwaway connection, then wake
        // every worker so the drain begins immediately.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        for w in &self.workers {
            w.waker.wake();
        }
        for w in self.workers.drain(..) {
            let _ = w.join.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.drain(DEFAULT_DRAIN);
    }
}

/// One registered connection in a worker's slab.
struct Conn {
    io: ConnIo,
    driver: Box<dyn ConnDriver>,
    interest: Interest,
    /// When the current phase times out (`None` = no budget configured).
    deadline: Option<Instant>,
    /// When the current deadline was armed (for `TimedOut::elapsed`).
    armed_at: Instant,
    /// The budget behind `deadline` (for `TimedOut::budget`).
    budget: Duration,
    /// Whole-message deadline (the slow-loris defense): armed when a
    /// message goes in flight and *not* re-armed on progress, unlike
    /// `deadline`, so trickling a byte per read budget doesn't extend it.
    msg_deadline: Option<Instant>,
}

/// Everything a worker thread owns.
struct WorkerCtx {
    poller: Poller,
    waker: Arc<Waker>,
    inbox: Inbox,
    factory: DriverFactory,
    read_timeout: Option<Duration>,
    write_timeout: Option<Duration>,
    transport: &'static str,
    metrics: &'static ServerMetrics,
    injector: Option<SharedInjector>,
    overload: Arc<Overload>,
    /// Slab bound backstopping the global cap against worker imbalance.
    worker_cap: Option<usize>,
    stop: Arc<AtomicBool>,
    drain_until: Arc<Mutex<Option<Instant>>>,
    errors: Arc<AtomicU64>,
}

impl WorkerCtx {
    fn run(self, idx: usize) {
        let iterations = metrics::worker_loop_iterations(self.transport, idx);
        let mut events = Events::with_capacity(1024);
        let mut conns: Vec<Option<Conn>> = Vec::new();
        let mut free: Vec<usize> = Vec::new();
        let mut live = 0usize;
        // Tokens whose drivers asked to be re-driven without socket
        // readiness (pipelined requests buffered in user space).
        let mut again: Vec<usize> = Vec::new();

        loop {
            iterations.inc();
            let draining = self.stop.load(Ordering::Acquire);
            if draining && live == 0 && lock(&self.inbox).is_empty() {
                break;
            }

            // Sleep policy: re-drives pending means don't sleep at all;
            // with connections (or a drain pending) wake at the poll tick
            // to scan deadlines; empty and serving, park until the
            // acceptor's waker fires.
            let timeout = if !again.is_empty() {
                Some(Duration::ZERO)
            } else if live > 0 || draining {
                Some(POLL_TICK)
            } else {
                None
            };
            if self.poller.wait(&mut events, timeout).is_err() {
                break; // a broken epoll fd cannot be served around
            }
            // The event batch starts draining now; its age feeds the
            // queue-delay shed signal for every request in it.
            let ctx = DriveCtx {
                draining,
                batch_started: Instant::now(),
            };

            let pending = std::mem::take(&mut again);
            let mut woken = false;
            for ev in events.iter() {
                if ev.token == WAKER_TOKEN {
                    woken = true;
                    continue;
                }
                self.drive(
                    &mut conns,
                    &mut free,
                    &mut live,
                    &mut again,
                    ev.token as usize,
                    ctx,
                );
            }
            if woken {
                self.waker.drain();
            }
            // Quota-yielded connections continue after every ready one
            // got its turn. Stale tokens (closed meanwhile) are skipped
            // by `drive`; slots aren't reused until registration below.
            for token in pending {
                self.drive(&mut conns, &mut free, &mut live, &mut again, token, ctx);
            }

            // Registrations last: a slot freed earlier in this batch can
            // be reused only after its stale events were consumed.
            while let Some(arrival) = lock(&self.inbox).pop_front() {
                self.register(&mut conns, &mut free, &mut live, &mut again, arrival, ctx);
            }

            // Deadline scan; during a drain also close idle connections
            // and enforce the drain deadline.
            let now = Instant::now();
            let drain_expired = draining
                && lock(&self.drain_until)
                    .map(|until| now >= until)
                    .unwrap_or(true);
            for token in 0..conns.len() {
                let Some(conn) = conns[token].as_ref() else {
                    continue;
                };
                let in_flight = conn.driver.in_flight();
                if draining && (!in_flight || drain_expired) {
                    if in_flight {
                        // Dropped mid-message at the drain deadline.
                        metrics::count_server_error(self.transport, "shutdown_drop");
                    }
                    self.close(&mut conns, &mut free, &mut live, token);
                    continue;
                }
                if let Some(msg_deadline) = conn.msg_deadline {
                    if now >= msg_deadline && in_flight {
                        // The whole-message budget expired without the
                        // exchange completing: a slow-loris peer trickling
                        // just enough to re-arm the phase deadline.
                        self.errors.fetch_add(1, Ordering::Relaxed);
                        metrics::count_server_error(self.transport, "slow_peer");
                        self.close(&mut conns, &mut free, &mut live, token);
                        continue;
                    }
                }
                if let Some(deadline) = conn.deadline {
                    if now >= deadline {
                        if in_flight {
                            let e = TransportError::TimedOut {
                                elapsed: now - conn.armed_at,
                                budget: conn.budget,
                            };
                            self.errors.fetch_add(1, Ordering::Relaxed);
                            metrics::count_server_error(
                                self.transport,
                                metrics::error_kind(&e),
                            );
                        }
                        self.close(&mut conns, &mut free, &mut live, token);
                    }
                }
            }
        }

        // Final sweep (the loop exits with live == 0 unless epoll broke).
        for token in 0..conns.len() {
            if conns[token].is_some() {
                self.close(&mut conns, &mut free, &mut live, token);
            }
        }
    }

    fn register(
        &self,
        conns: &mut Vec<Option<Conn>>,
        free: &mut Vec<usize>,
        live: &mut usize,
        again: &mut Vec<usize>,
        arrival: (TcpStream, Instant),
        ctx: DriveCtx,
    ) {
        let (stream, accepted_at) = arrival;
        if let Some(cap) = self.worker_cap {
            if *live >= cap {
                // The slab bound backstops the global cap when connection
                // lifetimes skew the round-robin balance: this worker is
                // already carrying twice its fair share.
                metrics::count_rejected(self.transport, "worker_slab");
                self.overload.release();
                // Dropped immediately (no linger list on workers): the
                // slab bound only trips under extreme imbalance, where a
                // lost rejection is acceptable.
                drop(self.overload.write_reject(stream));
                return;
            }
        }
        if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
            self.overload.release();
            return;
        }
        let io = match &self.injector {
            Some(inj) => ConnIo::Faulty(FaultingTransport::new(stream, Arc::clone(inj))),
            None => ConnIo::Plain(stream),
        };
        let token = free.pop().unwrap_or_else(|| {
            conns.push(None);
            conns.len() - 1
        });
        if self.poller.add(io.raw_fd(), token as u64, Interest::Readable).is_err() {
            free.push(token);
            self.overload.release();
            return;
        }
        self.metrics.connections_active.add(1.0);
        self.metrics
            .accept_to_dispatch
            .observe_duration(accepted_at.elapsed());
        conns[token] = Some(Conn {
            io,
            driver: (self.factory)(),
            interest: Interest::Readable,
            deadline: self.read_timeout.map(|t| Instant::now() + t),
            armed_at: Instant::now(),
            budget: self.read_timeout.unwrap_or_default(),
            msg_deadline: None,
        });
        *live += 1;
        // A peer may have sent bytes before registration; level-triggered
        // epoll would report them, but driving once now saves a tick.
        self.drive(conns, free, live, again, token, ctx);
    }

    fn drive(
        &self,
        conns: &mut [Option<Conn>],
        free: &mut Vec<usize>,
        live: &mut usize,
        again: &mut Vec<usize>,
        token: usize,
        ctx: DriveCtx,
    ) {
        let Some(conn) = conns.get_mut(token).and_then(Option::as_mut) else {
            return; // stale event for an already-closed slot
        };
        match conn.driver.drive(&mut conn.io, &ctx) {
            Ok(step) => {
                let (interest, budget) = match step.wants {
                    Wants::Close => {
                        self.close_slice(conns, free, live, token);
                        return;
                    }
                    Wants::Read => (Interest::Readable, self.read_timeout),
                    Wants::Again => {
                        // Quota yield with buffered input: schedule a
                        // re-drive this loop, keep watching for bytes.
                        again.push(token);
                        (Interest::Readable, self.read_timeout)
                    }
                    Wants::Write => {
                        // The handler's ReplyControl cap becomes a write
                        // *deadline* here: tighten-only against the static
                        // budget, floored so an already-expired caller
                        // still gets the fault bytes pushed at it.
                        let budget = match (self.write_timeout, step.write_cap) {
                            (Some(w), Some(c)) => Some(w.min(c)),
                            (w, c) => w.or(c),
                        }
                        .map(|b| b.max(Duration::from_millis(1)));
                        (Interest::Writable, budget)
                    }
                };
                if interest != conn.interest
                    && self
                        .poller
                        .modify(conn.io.raw_fd(), token as u64, interest)
                        .is_ok()
                {
                    conn.interest = interest;
                }
                let now = Instant::now();
                conn.deadline = budget.map(|b| now + b);
                conn.armed_at = now;
                conn.budget = budget.unwrap_or_default();
                // The whole-message deadline arms when a message goes in
                // flight and only clears when it completes — progress
                // does not extend it (the slow-loris defense).
                match (self.overload.message_deadline, conn.driver.in_flight()) {
                    (Some(budget), true) => {
                        conn.msg_deadline.get_or_insert(now + budget);
                    }
                    (_, false) => conn.msg_deadline = None,
                    _ => {}
                }
            }
            Err(e) => {
                self.errors.fetch_add(1, Ordering::Relaxed);
                metrics::count_server_error(self.transport, metrics::error_kind(&e));
                self.close_slice(conns, free, live, token);
            }
        }
    }

    fn close(
        &self,
        conns: &mut Vec<Option<Conn>>,
        free: &mut Vec<usize>,
        live: &mut usize,
        token: usize,
    ) {
        self.close_slice(conns.as_mut_slice(), free, live, token);
    }

    fn close_slice(
        &self,
        conns: &mut [Option<Conn>],
        free: &mut Vec<usize>,
        live: &mut usize,
        token: usize,
    ) {
        if let Some(conn) = conns[token].take() {
            let _ = self.poller.delete(conn.io.raw_fd());
            self.metrics.connections_active.add(-1.0);
            self.overload.release();
            free.push(token);
            *live -= 1;
        }
    }
}
