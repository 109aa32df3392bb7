//! Open-loop load harness for the evented server core (PR 6).
//!
//! Measures the things the reactor port was built for:
//!
//! 1. **10k sustain** — ≥10,000 concurrent keep-alive HTTP connections
//!    against one evented server, all exchanging requests at once.
//! 2. **Keep-alive vs one-shot** — requests-per-second with connection
//!    reuse vs a fresh connection per request, across the Table 1 payload
//!    grid (§6: 12 B/value × model sizes 10/100/1000/4000).
//!
//! The client is itself an epoll readiness loop (reusing
//! [`transport::Poller`]): a thread-per-connection client cannot drive
//! 10k sockets from the one-core container this runs in. Each connection
//! runs a closed loop (next request issued as soon as the response
//! lands); across the population the offered load is open — no
//! connection waits for any other. Latency is recorded per exchange into
//! an [`obs::Histogram`] (log₂ buckets, so percentiles are power-of-two
//! resolution) from first request byte written to last response byte
//! read.
//!
//! The server under test runs in a **subprocess** (`--serve <mode>`) so
//! client and server each get the container's full fd budget, and a
//! server panic is an observable crash rather than a silent wedge.
//!
//! Run with: `cargo run --release -p bench --bin loadgen` (full grid,
//! prints the BENCH_PR6 JSON on stdout) or `-- --smoke` (1k connections,
//! one grid cell, asserts sanity bounds; the CI job).
//!
//! PR 7 adds hostile-client scenarios against the overload-protected
//! server (`--overload` prints the BENCH_PR7 JSON; `--overload-smoke` is
//! the CI job): a connection flood past the admission cap, a slow-loris
//! swarm against the whole-message deadline, stalled readers against the
//! write budget, and an open-loop 2× overload measuring the latency of
//! *admitted* requests while the excess is turned away with 503s.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use obs::Histogram;
use transport::{
    Events, HttpRequest, HttpResponse, Interest, OverloadConfig, Poller, Reply, ReplyControl,
    RequestHead, ServerBuilder,
};

/// Table 1 payload grid: 12 B per array value at model sizes
/// 10 / 100 / 1000 / 4000.
const PAYLOAD_GRID: [usize; 4] = [120, 1_200, 12_000, 48_000];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--serve") => serve(args.get(1).map(String::as_str).unwrap_or("")),
        Some("--smoke") => smoke(),
        Some("--overload") => overload_report(),
        Some("--overload-smoke") => overload_smoke(),
        _ => full_grid(),
    }
}

// ---------------------------------------------------------------------
// Server subprocess
// ---------------------------------------------------------------------

/// Child-process entry: bind the requested server flavor on an ephemeral
/// port, print `ADDR <addr>` for the parent, then park until killed.
fn serve(mode: &str) {
    fn echo(_: &mut (), _: &RequestHead<'_>, body: &[u8], reply: &mut Reply, _: &mut ReplyControl) {
        reply.header("Content-Type", "application/octet-stream");
        reply.body.extend_from_slice(body);
    }
    let server = match mode {
        "http-evented" => ServerBuilder::bind("127.0.0.1:0")
            .read_timeout(Duration::from_secs(60))
            .write_timeout(Duration::from_secs(60))
            .serve_http(|| (), echo),
        // Admission-capped echo: 128 connections (BX_SERVER_MAX_CONNS
        // overrides), accept-then-reject, a whole-message deadline that
        // kills slow-loris trickles, and a tight write budget that kills
        // stalled readers. Metrics stay scrapable under attack.
        "http-overload" => ServerBuilder::bind("127.0.0.1:0")
            .read_timeout(Duration::from_secs(5))
            .write_timeout(Duration::from_secs(1))
            .metrics_path("/metrics")
            .overload(OverloadConfig {
                max_connections: Some(128),
                reject_when_full: true,
                message_deadline: Some(Duration::from_millis(500)),
                ..OverloadConfig::default()
            })
            .serve_http(|| (), echo),
        // Slow echo (20 ms nap per request) with request-level shedding:
        // the inflight bound and queue-delay signal turn the excess away
        // as 503s before any handler work.
        "http-slow" => ServerBuilder::bind("127.0.0.1:0")
            .read_timeout(Duration::from_secs(5))
            .write_timeout(Duration::from_secs(5))
            .metrics_path("/metrics")
            .overload(OverloadConfig {
                max_inflight: Some(2),
                shed_queue_delay: Some(Duration::from_millis(100)),
                ..OverloadConfig::default()
            })
            .serve_http(
                || (),
                |state, head, body, reply, ctl| {
                    std::thread::sleep(Duration::from_millis(20));
                    echo(state, head, body, reply, ctl)
                },
            ),
        other => panic!("unknown serve mode {other:?}"),
    }
    .unwrap_or_else(|e| panic!("bind {mode}: {e}"));
    println!("ADDR {}", server.local_addr());
    use std::io::Write as _;
    std::io::stdout().flush().expect("flush addr line");
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

/// Spawn `--serve <mode>` as a subprocess and wait for its `ADDR` line.
struct ServerProc {
    child: Child,
    addr: String,
}

impl ServerProc {
    fn start(mode: &str) -> ServerProc {
        ServerProc::start_with_env(mode, &[])
    }

    /// Start with extra environment for the child — the way the overload
    /// scenarios set `BX_SERVER_MAX_CONNS` / `BX_SERVER_WORKERS`, also
    /// exercising the real env-override path.
    fn start_with_env(mode: &str, env: &[(&str, &str)]) -> ServerProc {
        let exe = std::env::current_exe().expect("current exe");
        let mut cmd = Command::new(exe);
        cmd.arg("--serve").arg(mode).stdout(Stdio::piped());
        for (k, v) in env {
            cmd.env(k, v);
        }
        let mut child = cmd.spawn().expect("spawn server subprocess");
        let stdout = child.stdout.take().expect("child stdout");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .expect("read ADDR line");
        let addr = line
            .strip_prefix("ADDR ")
            .unwrap_or_else(|| panic!("bad server banner {line:?}"))
            .trim()
            .to_owned();
        ServerProc { child, addr }
    }

    /// `true` while the child is still running — the "zero panics/OOM"
    /// check after an attack (a panicking worker or an OOM kill would
    /// show up as an exited child).
    fn alive(&mut self) -> bool {
        matches!(self.child.try_wait(), Ok(None))
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

// ---------------------------------------------------------------------
// Epoll client
// ---------------------------------------------------------------------

/// Connection lifecycle across exchanges.
#[derive(Clone, Copy, PartialEq)]
enum Reuse {
    /// One socket, many exchanges (framed TCP, HTTP keep-alive).
    KeepAlive,
    /// Fresh socket per exchange (`Connection: close`).
    PerRequest,
}

/// One load-generator connection: a write-then-read exchange loop.
struct LoadConn {
    stream: TcpStream,
    written: usize,
    inbuf: Vec<u8>,
    /// Response head length once delimited (HTTP) — body offset.
    head_len: Option<usize>,
    /// Total response length once known.
    expected: Option<usize>,
    started: Instant,
    reading: bool,
}

impl LoadConn {
    fn connect(addr: &str) -> std::io::Result<LoadConn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(LoadConn {
            stream,
            written: 0,
            inbuf: Vec::with_capacity(256),
            head_len: None,
            expected: None,
            started: Instant::now(),
            reading: false,
        })
    }

    fn reset(&mut self) {
        self.written = 0;
        self.inbuf.clear();
        self.head_len = None;
        self.expected = None;
        self.started = Instant::now();
        self.reading = false;
    }

    /// Push request bytes; true when the request is fully written.
    fn step_write(&mut self, request: &[u8]) -> std::io::Result<bool> {
        while self.written < request.len() {
            match self.stream.write(&request[self.written..]) {
                Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
                Ok(n) => self.written += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.reading = true;
        Ok(true)
    }

    /// Pull response bytes; true when the response is complete.
    fn step_read(&mut self) -> std::io::Result<bool> {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if self.complete()? {
                return Ok(true);
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(std::io::Error::other(format!(
                        "server closed mid-response ({} bytes in)",
                        self.inbuf.len()
                    )))
                }
                Ok(n) => self.inbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// True once the HTTP/1.1 head and its `Content-Length` body are in.
    fn complete(&mut self) -> std::io::Result<bool> {
        if self.head_len.is_none() {
            if let Some(pos) = self.inbuf.windows(4).position(|w| w == b"\r\n\r\n") {
                let head = &self.inbuf[..pos];
                let body_len = head
                    .split(|&b| b == b'\n')
                    .filter_map(|line| {
                        let line = std::str::from_utf8(line).ok()?;
                        let (name, value) = line.split_once(':')?;
                        name.eq_ignore_ascii_case("content-length")
                            .then(|| value.trim().parse::<usize>().ok())?
                    })
                    .next()
                    .ok_or_else(|| std::io::Error::other("response without Content-Length"))?;
                self.head_len = Some(pos + 4);
                self.expected = Some(pos + 4 + body_len);
            }
        }
        Ok(self.expected.is_some_and(|e| self.inbuf.len() >= e))
    }
}

/// Outcome of one load cell.
struct CellResult {
    exchanges: u64,
    errors: u64,
    elapsed: Duration,
    /// Fresh sockets opened (per-request mode churns these).
    connects: u64,
    /// Time to get the whole population connected.
    connect_time: Duration,
    latency: Histogram,
    /// 503s received — the server's explicit overload answer. Not
    /// goodput, not an error; the latency histogram covers 200s only.
    shed: u64,
    /// 503s that broke the overload contract (missing `Retry-After` or
    /// `Connection: close`). Must stay zero.
    shed_violations: u64,
}

/// Does a complete 503 response honor the overload contract — a
/// parseable nonzero `Retry-After` and `Connection: close`?
fn shed_contract_ok(response: &[u8]) -> bool {
    let Some(head_end) = response.windows(4).position(|w| w == b"\r\n\r\n") else {
        return false;
    };
    let Ok(head) = std::str::from_utf8(&response[..head_end]) else {
        return false;
    };
    let mut retry_after = false;
    let mut closes = false;
    for line in head.lines().skip(1) {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        if name.eq_ignore_ascii_case("retry-after") {
            retry_after = value.trim().parse::<u64>().is_ok_and(|s| s >= 1);
        }
        if name.eq_ignore_ascii_case("connection") {
            closes = value.trim().eq_ignore_ascii_case("close");
        }
    }
    retry_after && closes
}

impl CellResult {
    fn rps(&self) -> f64 {
        self.exchanges as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    fn quantile_us(&self, q: f64) -> f64 {
        self.latency.snapshot().quantile(q) as f64 / 1_000.0
    }
}

/// Drive `concurrency` connections against `addr` for `duration`.
///
/// Every connection issues its next request the instant the previous
/// response completes (or, in per-request mode, over a fresh socket), so
/// concurrency — not client pacing — is the offered load.
fn run_cell(
    addr: &str,
    reuse: Reuse,
    request: &[u8],
    concurrency: usize,
    duration: Duration,
    max_exchanges: u64,
) -> CellResult {
    let poller = Poller::new().expect("client epoll");
    let mut events = Events::with_capacity(4096);
    let mut conns: Vec<Option<LoadConn>> = Vec::with_capacity(concurrency);
    let latency = Histogram::new();
    let mut exchanges = 0u64;
    let mut errors = 0u64;
    let mut connects = 0u64;
    let mut shed = 0u64;
    let mut shed_violations = 0u64;

    let connect_started = Instant::now();
    for token in 0..concurrency {
        match LoadConn::connect(addr) {
            Ok(conn) => {
                poller
                    .add(conn.stream.as_raw_fd(), token as u64, Interest::Writable)
                    .expect("register");
                conns.push(Some(conn));
                connects += 1;
            }
            Err(e) => panic!("connect {} of {concurrency} failed: {e}", token + 1),
        }
    }
    let connect_time = connect_started.elapsed();

    let cell_started = Instant::now();
    let deadline = cell_started + duration;
    let mut live = concurrency;
    // Tokens whose socket died or finished and should reconnect (bounded
    // by the deadline check below so the cell always terminates).
    let mut reconnect: VecDeque<usize> = VecDeque::new();

    while live > 0 {
        let now = Instant::now();
        let finished = now >= deadline || exchanges >= max_exchanges;
        if finished && reconnect.len() == live {
            break; // everything remaining is waiting on a reconnect we won't do
        }
        while let Some(token) = reconnect.pop_front() {
            if finished {
                live -= 1;
                continue;
            }
            match LoadConn::connect(addr) {
                Ok(conn) => {
                    poller
                        .add(conn.stream.as_raw_fd(), token as u64, Interest::Writable)
                        .expect("register");
                    conns[token] = Some(conn);
                    connects += 1;
                }
                Err(_) => {
                    errors += 1;
                    reconnect.push_back(token); // retry next tick
                    break;
                }
            }
        }
        if live == 0 {
            break;
        }
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(100)))
            .expect("epoll wait");
        if n == 0 && Instant::now() >= deadline {
            // Stragglers past the deadline: stop waiting for them.
            for slot in conns.iter_mut() {
                if let Some(conn) = slot.take() {
                    let _ = poller.delete(conn.stream.as_raw_fd());
                }
            }
            break;
        }
        for event in events.iter() {
            let token = event.token as usize;
            let Some(conn) = conns.get_mut(token).and_then(Option::as_mut) else {
                continue;
            };
            let step = drive_conn(conn, request, event.writable);
            match step {
                Ok(None) => {
                    // Mid-exchange: make sure the interest matches phase.
                    let want = if conn.reading {
                        Interest::Readable
                    } else {
                        Interest::Writable
                    };
                    let _ = poller.modify(conn.stream.as_raw_fd(), event.token, want);
                }
                Ok(Some(elapsed)) => {
                    // An overloaded server's explicit "no": tallied apart
                    // from goodput, checked against the contract, and the
                    // socket (which the server is closing) recycled.
                    if conn.inbuf.starts_with(b"HTTP/1.1 503") {
                        shed += 1;
                        if !shed_contract_ok(&conn.inbuf) {
                            shed_violations += 1;
                        }
                        let conn = conns[token].take().expect("just drove it");
                        let _ = poller.delete(conn.stream.as_raw_fd());
                        if Instant::now() >= deadline {
                            live -= 1;
                        } else {
                            reconnect.push_back(token);
                        }
                        continue;
                    }
                    latency.observe_duration(elapsed);
                    exchanges += 1;
                    let done = Instant::now() >= deadline || exchanges >= max_exchanges;
                    match (reuse, done) {
                        (Reuse::KeepAlive, false) => {
                            conn.reset();
                            let _ = poller.modify(
                                conn.stream.as_raw_fd(),
                                event.token,
                                Interest::Writable,
                            );
                        }
                        (Reuse::PerRequest, false) => {
                            let conn = conns[token].take().expect("just drove it");
                            let _ = poller.delete(conn.stream.as_raw_fd());
                            drop(conn);
                            reconnect.push_back(token);
                        }
                        (_, true) => {
                            let conn = conns[token].take().expect("just drove it");
                            let _ = poller.delete(conn.stream.as_raw_fd());
                            live -= 1;
                        }
                    }
                }
                Err(_) => {
                    errors += 1;
                    let conn = conns[token].take().expect("just drove it");
                    let _ = poller.delete(conn.stream.as_raw_fd());
                    if Instant::now() >= deadline {
                        live -= 1;
                    } else {
                        reconnect.push_back(token);
                    }
                }
            }
        }
    }

    CellResult {
        exchanges,
        errors,
        // Actual wall time, not the nominal duration: a cell capped by
        // `max_exchanges` finishes early and must not under-report.
        elapsed: cell_started.elapsed(),
        connects,
        connect_time,
        latency,
        shed,
        shed_violations,
    }
}

/// Advance one connection as far as readiness allows; `Some(latency)`
/// when an exchange completed.
fn drive_conn(
    conn: &mut LoadConn,
    request: &[u8],
    writable: bool,
) -> std::io::Result<Option<Duration>> {
    if !conn.reading && (writable || conn.written > 0) && !conn.step_write(request)? {
        return Ok(None);
    }
    if conn.reading && conn.step_read()? {
        return Ok(Some(conn.started.elapsed()));
    }
    Ok(None)
}

// ---------------------------------------------------------------------
// Request builders
// ---------------------------------------------------------------------

fn http_request(payload: usize, keep_alive: bool) -> Vec<u8> {
    let req = HttpRequest::post("/echo", "application/octet-stream", vec![0x42; payload]);
    let mut wire = Vec::new();
    req.write_to_with(&mut wire, keep_alive).expect("serialize");
    wire
}

// ---------------------------------------------------------------------
// Scenarios
// ---------------------------------------------------------------------

fn sustain(connections: usize, duration: Duration) -> (CellResult, f64) {
    let server = ServerProc::start("http-evented");
    let result = run_cell(
        &server.addr,
        Reuse::KeepAlive,
        &http_request(PAYLOAD_GRID[0], true),
        connections,
        duration,
        u64::MAX,
    );
    let conn_rate = result.connects as f64 / result.connect_time.as_secs_f64().max(1e-9);
    (result, conn_rate)
}

struct GridRow {
    payload: usize,
    keepalive_rps: f64,
    close_rps: f64,
    keepalive_p99_us: f64,
    close_p99_us: f64,
}

fn keepalive_vs_close(
    payloads: &[usize],
    concurrency: usize,
    duration: Duration,
    close_cap: u64,
) -> Vec<GridRow> {
    let server = ServerProc::start("http-evented");
    payloads
        .iter()
        .map(|&payload| {
            let ka = run_cell(
                &server.addr,
                Reuse::KeepAlive,
                &http_request(payload, true),
                concurrency,
                duration,
                u64::MAX,
            );
            // One-shot churns ephemeral ports, so it is additionally
            // capped by exchange count to stay inside the port range.
            let close = run_cell(
                &server.addr,
                Reuse::PerRequest,
                &http_request(payload, false),
                concurrency,
                duration,
                close_cap,
            );
            eprintln!(
                "  {payload:>6} B: keep-alive {:.0} req/s vs close {:.0} req/s",
                ka.rps(),
                close.rps()
            );
            GridRow {
                payload,
                keepalive_rps: ka.rps(),
                close_rps: close.rps(),
                keepalive_p99_us: ka.quantile_us(0.99),
                close_p99_us: close.quantile_us(0.99),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Overload scenarios (PR 7)
// ---------------------------------------------------------------------

/// Sum of every sample of a metric family in one `/metrics` scrape.
fn scrape_metric(addr: &str, name: &str) -> Option<f64> {
    let text = transport::http_get(addr, "/metrics").ok()?;
    let text = std::str::from_utf8(&text).ok()?;
    let mut total = 0.0;
    let mut seen = false;
    for line in text.lines() {
        if line.starts_with(name)
            && matches!(line.as_bytes().get(name.len()), Some(b'{' | b' '))
        {
            if let Some(v) = line.rsplit(' ').next().and_then(|v| v.parse::<f64>().ok()) {
                total += v;
                seen = true;
            }
        }
    }
    seen.then_some(total)
}

struct OverloadOutcome {
    unloaded_p99_us: f64,
    unloaded_rps: f64,
    loaded_p99_us: f64,
    loaded_rps: f64,
    served: u64,
    shed: u64,
    shed_violations: u64,
    errors: u64,
    server_survived: bool,
}

/// Open-loop overload: baseline at half the admission cap, then 2× the
/// cap. The server keeps serving what it admitted and turns the rest
/// away with contract-carrying 503s.
fn openloop_overload(cap: usize, duration: Duration) -> OverloadOutcome {
    let cap_s = cap.to_string();
    let mut server =
        ServerProc::start_with_env("http-overload", &[("BX_SERVER_MAX_CONNS", &cap_s)]);
    let request = http_request(PAYLOAD_GRID[0], true);
    let unloaded = run_cell(
        &server.addr,
        Reuse::KeepAlive,
        &request,
        (cap / 2).max(1),
        duration,
        u64::MAX,
    );
    let loaded = run_cell(
        &server.addr,
        Reuse::KeepAlive,
        &request,
        cap * 2,
        duration,
        u64::MAX,
    );
    eprintln!(
        "  unloaded p99 {:.0} µs / {:.0} req/s; 2x-overload p99 {:.0} µs / {:.0} req/s goodput, {} shed ({} contract violations), {} errors",
        unloaded.quantile_us(0.99),
        unloaded.rps(),
        loaded.quantile_us(0.99),
        loaded.rps(),
        loaded.shed,
        unloaded.shed_violations + loaded.shed_violations,
        unloaded.errors + loaded.errors,
    );
    OverloadOutcome {
        unloaded_p99_us: unloaded.quantile_us(0.99),
        unloaded_rps: unloaded.rps(),
        loaded_p99_us: loaded.quantile_us(0.99),
        loaded_rps: loaded.rps(),
        served: loaded.exchanges,
        shed: unloaded.shed + loaded.shed,
        shed_violations: unloaded.shed_violations + loaded.shed_violations,
        errors: unloaded.errors + loaded.errors,
        server_survived: server.alive(),
    }
}

struct FloodOutcome {
    attempted: usize,
    admitted: usize,
    rejected: usize,
    contract_violations: usize,
    cap: usize,
    server_survived: bool,
}

/// Connection flood: open `total` idle connections at once against a cap
/// of `cap`. At most `cap` may be admitted; the rest must receive the
/// canned rejection and a close, never a silent hang.
fn connection_flood(cap: usize, total: usize) -> FloodOutcome {
    let cap_s = cap.to_string();
    let mut server =
        ServerProc::start_with_env("http-overload", &[("BX_SERVER_MAX_CONNS", &cap_s)]);
    let mut held: Vec<TcpStream> = Vec::with_capacity(total);
    for n in 0..total {
        match TcpStream::connect(&server.addr) {
            Ok(s) => {
                s.set_nonblocking(true).expect("nonblocking");
                held.push(s);
            }
            Err(e) => panic!("flood connect {n}/{total}: {e}"),
        }
    }
    // Give the acceptor time to classify everyone, then sort the
    // population: data or close = rejected, silence = admitted.
    std::thread::sleep(Duration::from_millis(500));
    let mut admitted = 0;
    let mut rejected = 0;
    let mut contract_violations = 0;
    for mut s in held {
        let mut buf = Vec::new();
        let mut chunk = [0u8; 1024];
        let verdict = loop {
            match s.read(&mut chunk) {
                Ok(0) => break "rejected",
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    break if buf.is_empty() { "admitted" } else { "rejected" }
                }
                Err(_) => break "rejected",
            }
        };
        if verdict == "admitted" {
            admitted += 1;
        } else {
            rejected += 1;
            // A rejection that sent bytes must be the full 503 contract;
            // a silent close (empty buffer) is acceptable parting.
            let contract_held =
                buf.is_empty() || (buf.starts_with(b"HTTP/1.1 503") && shed_contract_ok(&buf));
            if !contract_held {
                contract_violations += 1;
            }
        }
    }
    eprintln!(
        "  flood {total} conns vs cap {cap}: {admitted} admitted, {rejected} rejected, {contract_violations} contract violations"
    );
    FloodOutcome {
        attempted: total,
        admitted,
        rejected,
        contract_violations,
        cap,
        server_survived: server.alive(),
    }
}

/// One slow-loris connection: a trickling request head, one byte per
/// tick, designed to dodge any timeout that re-arms on progress.
fn loris_connect(addr: &str) -> Option<(TcpStream, usize)> {
    let stream = TcpStream::connect(addr).ok()?;
    stream.set_nonblocking(true).ok()?;
    Some((stream, 0))
}

/// Maintain a `population`-strong slow-loris swarm for `duration`;
/// returns how many attacker sockets the server terminated (rejected at
/// the cap or reaped by the whole-message deadline).
fn loris_swarm(addr: &str, population: usize, duration: Duration) -> u64 {
    const HEAD: &[u8] = b"POST /echo HTTP/1.1\r\nContent-Length: 1000000\r\nX-Pad: ";
    let mut socks: Vec<Option<(TcpStream, usize)>> =
        (0..population).map(|_| loris_connect(addr)).collect();
    let mut reaped = 0u64;
    let deadline = Instant::now() + duration;
    while Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(100));
        for slot in socks.iter_mut() {
            let Some((stream, sent)) = slot else {
                *slot = loris_connect(addr);
                continue;
            };
            // Drain: a 503 or EOF here is the server turning us away.
            let mut buf = [0u8; 512];
            match stream.read(&mut buf) {
                Ok(0) => {
                    reaped += 1;
                    *slot = loris_connect(addr);
                    continue;
                }
                Ok(_) => {} // rejection bytes; the close lands next read
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                Err(_) => {
                    reaped += 1;
                    *slot = loris_connect(addr);
                    continue;
                }
            }
            // The trickle: one byte of request head per tick — enough
            // progress to re-arm any per-read timeout forever.
            let byte = if *sent < HEAD.len() { HEAD[*sent] } else { b'a' };
            match stream.write(&[byte]) {
                Ok(_) => *sent += 1,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                Err(_) => {
                    reaped += 1;
                    *slot = loris_connect(addr);
                }
            }
        }
    }
    reaped
}

struct LorisOutcome {
    swarm: usize,
    cap: usize,
    reaped: u64,
    /// Peak of `bx_server_connections_active` observed during the attack.
    max_active: f64,
    scrape_samples: u32,
    victim_exchanges: u64,
    victim_shed: u64,
    server_survived: bool,
}

/// Slow-loris swarm vs the whole-message deadline: `swarm` trickling
/// connections attack a cap-`cap` server while a well-behaved client
/// keeps calling and a pre-attack keep-alive scrape connection samples
/// the active-connection gauge.
fn slowloris_attack(cap: usize, swarm: usize, duration: Duration) -> LorisOutcome {
    let cap_s = cap.to_string();
    let mut server =
        ServerProc::start_with_env("http-overload", &[("BX_SERVER_MAX_CONNS", &cap_s)]);
    let addr = server.addr.clone();

    // The scrape connection is established (admitted) before the attack
    // and kept alive through it — metrics scrapes are shed-exempt, so
    // observability survives the incident.
    let scrape_stream = TcpStream::connect(&addr).expect("scrape connect");
    scrape_stream.set_nodelay(true).expect("nodelay");
    let scrape_until = Instant::now() + duration;
    let scraper = std::thread::spawn(move || {
        let mut reader = BufReader::new(scrape_stream);
        let mut max_active = 0.0f64;
        let mut samples = 0u32;
        let request = HttpRequest::get("/metrics");
        while Instant::now() < scrape_until {
            if request.write_to_with(reader.get_mut(), true).is_err() {
                break;
            }
            let Ok(resp) = HttpResponse::read_from(&mut reader) else {
                break;
            };
            if let Ok(text) = std::str::from_utf8(&resp.body) {
                for line in text.lines() {
                    if line.starts_with("bx_server_connections_active") {
                        if let Some(v) =
                            line.rsplit(' ').next().and_then(|v| v.parse::<f64>().ok())
                        {
                            max_active = max_active.max(v);
                            samples += 1;
                        }
                    }
                }
            }
            std::thread::sleep(Duration::from_millis(100));
        }
        (max_active, samples)
    });

    let attack_addr = addr.clone();
    let attack = std::thread::spawn(move || loris_swarm(&attack_addr, swarm, duration));

    // Let the attack saturate the cap, then measure a well-behaved
    // client through the remainder: the deadline reaps attackers every
    // 500 ms, so slots keep opening.
    std::thread::sleep(duration / 4);
    let victim = run_cell(
        &addr,
        Reuse::KeepAlive,
        &http_request(PAYLOAD_GRID[0], true),
        4,
        duration / 2,
        u64::MAX,
    );

    let reaped = attack.join().expect("attack thread");
    let (max_active, scrape_samples) = scraper.join().expect("scrape thread");
    eprintln!(
        "  loris swarm {swarm} vs cap {cap}: {reaped} attacker conns terminated, peak active {max_active:.0} ({scrape_samples} samples), victim served {} (shed {})",
        victim.exchanges, victim.shed,
    );
    LorisOutcome {
        swarm,
        cap,
        reaped,
        max_active,
        scrape_samples,
        victim_exchanges: victim.exchanges,
        victim_shed: victim.shed,
        server_survived: server.alive(),
    }
}

struct StalledOutcome {
    stalled: usize,
    killed: usize,
    victim_exchanges: u64,
    server_survived: bool,
}

/// Stalled readers: each sends a large echo request and never reads the
/// response, pinning the server's write path until the write budget
/// (1 s in the `http-overload` profile) kills the connection.
fn stalled_readers(count: usize, payload: usize) -> StalledOutcome {
    let mut server = ServerProc::start("http-overload");
    let request = http_request(payload, true);
    let mut socks = Vec::with_capacity(count);
    for n in 0..count {
        let mut s = TcpStream::connect(&server.addr)
            .unwrap_or_else(|e| panic!("stalled connect {n}/{count}: {e}"));
        s.write_all(&request).expect("write stalled request");
        socks.push(s);
    }
    // Past the write budget every stalled connection must be gone; the
    // kill shows up to the (finally reading) client as EOF or a reset.
    std::thread::sleep(Duration::from_millis(2_500));
    let mut killed = 0;
    for mut s in socks {
        s.set_nonblocking(true).expect("nonblocking");
        let mut sink = [0u8; 64 * 1024];
        loop {
            match s.read(&mut sink) {
                Ok(0) => {
                    killed += 1;
                    break;
                }
                Ok(_) => continue, // drain what the server got out
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    break; // still open: the write budget failed to kill it
                }
                Err(_) => {
                    killed += 1;
                    break;
                }
            }
        }
    }
    let victim = run_cell(
        &server.addr,
        Reuse::KeepAlive,
        &http_request(PAYLOAD_GRID[0], true),
        2,
        Duration::from_millis(500),
        200,
    );
    eprintln!(
        "  {count} stalled readers ({payload} B echo): {killed} killed by the write budget, victim served {}",
        victim.exchanges
    );
    StalledOutcome {
        stalled: count,
        killed,
        victim_exchanges: victim.exchanges,
        server_survived: server.alive(),
    }
}

struct ShedOutcome {
    served: u64,
    shed: u64,
    shed_violations: u64,
    shed_total_metric: f64,
    server_survived: bool,
}

/// Request-level shedding on a slow service: drive far more concurrency
/// than the inflight bound admits and confirm the excess is answered
/// with 503s before handler work, visible in `bx_server_shed_total`.
fn shed_slow_service(concurrency: usize, duration: Duration) -> ShedOutcome {
    let mut server =
        ServerProc::start_with_env("http-slow", &[("BX_SERVER_WORKERS", "4")]);
    let cell = run_cell(
        &server.addr,
        Reuse::KeepAlive,
        &http_request(PAYLOAD_GRID[0], true),
        concurrency,
        duration,
        u64::MAX,
    );
    let shed_total = scrape_metric(&server.addr, "bx_server_shed_total").unwrap_or(0.0);
    eprintln!(
        "  slow service at {concurrency} conns: {} served, {} shed client-side, bx_server_shed_total {shed_total:.0}",
        cell.exchanges, cell.shed
    );
    ShedOutcome {
        served: cell.exchanges,
        shed: cell.shed,
        shed_violations: cell.shed_violations,
        shed_total_metric: shed_total,
        server_survived: server.alive(),
    }
}

// ---------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------

fn smoke() {
    eprintln!("loadgen smoke: 1k-connection sustain");
    let (sustain, conn_rate) = sustain(1_000, Duration::from_secs(2));
    eprintln!(
        "  1000 conns in {:.0} ms ({conn_rate:.0} conn/s), {} exchanges, {} errors, p99 {:.0} µs",
        sustain.connect_time.as_secs_f64() * 1e3,
        sustain.exchanges,
        sustain.errors,
        sustain.quantile_us(0.99),
    );
    assert_eq!(sustain.errors, 0, "smoke run must be error free");
    assert!(
        sustain.exchanges >= 1_000,
        "every connection must complete at least one exchange"
    );
    // Generous: catches only order-of-magnitude regressions (seconds of
    // tail latency at 1k connections), not scheduler noise.
    assert!(
        sustain.quantile_us(0.99) < 5_000_000.0,
        "p99 {} µs exceeds the 5 s smoke bound",
        sustain.quantile_us(0.99)
    );

    eprintln!("loadgen smoke: keep-alive vs one-shot (1.2 KB)");
    let grid = keepalive_vs_close(&PAYLOAD_GRID[1..2], 32, Duration::from_secs(1), 2_000);
    assert!(
        grid[0].keepalive_rps > grid[0].close_rps,
        "keep-alive ({:.0} req/s) must beat one-shot ({:.0} req/s)",
        grid[0].keepalive_rps,
        grid[0].close_rps
    );
    eprintln!("loadgen smoke: PASS");
}

/// CI job: every hostile-client scenario at reduced scale, asserted.
fn overload_smoke() {
    eprintln!("overload smoke: open-loop 2x vs cap 64");
    let over = openloop_overload(64, Duration::from_millis(1_500));
    assert!(over.server_survived, "server died under 2x overload");
    assert!(over.served > 0, "admitted requests must still be served");
    assert!(over.shed > 0, "2x the cap must produce rejections");
    assert_eq!(
        over.shed_violations, 0,
        "every 503 must carry Retry-After and Connection: close"
    );
    // The acceptance bound, with a noise floor for the shared 1-core
    // container (log2 histogram buckets make small p99s coarse too).
    assert!(
        over.loaded_p99_us <= 3.0 * over.unloaded_p99_us + 50_000.0,
        "admitted p99 {} µs vs unloaded {} µs breaches the 3x bound",
        over.loaded_p99_us,
        over.unloaded_p99_us
    );
    assert!(
        over.errors <= (over.served + over.shed) / 50 + 5,
        "{} transport errors is beyond the RST-race allowance",
        over.errors
    );

    eprintln!("overload smoke: flood 128 conns vs cap 32");
    let flood = connection_flood(32, 128);
    assert!(flood.server_survived, "server died under connection flood");
    assert!(
        flood.admitted <= flood.cap,
        "{} admitted past the cap of {}",
        flood.admitted,
        flood.cap
    );
    assert!(
        flood.rejected >= flood.attempted - flood.cap,
        "only {} of {} overflow connections were rejected",
        flood.rejected,
        flood.attempted - flood.cap
    );
    assert_eq!(flood.contract_violations, 0, "rejections must carry the contract");

    eprintln!("overload smoke: slow-loris 200 vs cap 32");
    let loris = slowloris_attack(32, 200, Duration::from_secs(2));
    assert!(loris.server_survived, "server died under slow-loris swarm");
    assert!(loris.reaped > 0, "the deadline must reap trickling connections");
    assert!(
        loris.scrape_samples > 0,
        "metrics must stay scrapable during the attack"
    );
    assert!(
        loris.max_active <= loris.cap as f64,
        "active connections {} exceeded the cap of {}",
        loris.max_active,
        loris.cap
    );
    assert!(
        loris.victim_exchanges > 0,
        "a well-behaved client must get through the attack"
    );

    eprintln!("overload smoke: request shedding on a slow service");
    let shed = shed_slow_service(32, Duration::from_millis(1_500));
    assert!(shed.server_survived, "server died while shedding");
    assert!(shed.served > 0, "shedding must not starve everyone");
    assert!(shed.shed > 0, "an overdriven slow service must shed");
    assert_eq!(shed.shed_violations, 0, "shed 503s must carry the contract");
    assert!(
        shed.shed_total_metric >= 1.0,
        "bx_server_shed_total must be nonzero after shedding"
    );

    eprintln!("overload smoke: 4 stalled readers");
    let stalled = stalled_readers(4, 48 << 20);
    assert!(stalled.server_survived, "server died on stalled readers");
    assert_eq!(
        stalled.killed, stalled.stalled,
        "the write budget must kill every stalled reader"
    );
    assert!(
        stalled.victim_exchanges > 0,
        "service must continue after stalled readers are reaped"
    );

    eprintln!("overload smoke: PASS");
}

/// Full-scale hostile-client run; prints the BENCH_PR7 JSON on stdout.
fn overload_report() {
    eprintln!("loadgen overload: open-loop 2x vs cap 128");
    let over = openloop_overload(128, Duration::from_secs(3));
    eprintln!("loadgen overload: flood 512 conns vs cap 128");
    let flood = connection_flood(128, 512);
    eprintln!("loadgen overload: slow-loris 1000 vs cap 128");
    let loris = slowloris_attack(128, 1_000, Duration::from_secs(4));
    eprintln!("loadgen overload: request shedding on a slow service");
    let shed = shed_slow_service(64, Duration::from_secs(2));
    eprintln!("loadgen overload: 8 stalled readers");
    let stalled = stalled_readers(8, 48 << 20);

    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"pr\": 7,\n");
    out.push_str("  \"title\": \"Overload protection: admission control, load shedding, hostile-client defense\",\n");
    out.push_str("  \"harness\": \"loadgen --overload (epoll client, overload-capped server in subprocess)\",\n");
    out.push_str("  \"machine_note\": \"1-core container; latencies from obs log2 histograms, so percentiles are power-of-two upper bounds\",\n");
    out.push_str(&format!(
        "  \"openloop_2x\": {{\"cap\": 128, \"unloaded_p99_us\": {:.1}, \"unloaded_req_per_sec\": {:.0}, \"overloaded_p99_us\": {:.1}, \"overloaded_goodput_req_per_sec\": {:.0}, \"p99_ratio\": {:.2}, \"goodput_retained\": {:.2}, \"served\": {}, \"shed\": {}, \"shed_contract_violations\": {}, \"errors\": {}, \"server_survived\": {}}},\n",
        over.unloaded_p99_us,
        over.unloaded_rps,
        over.loaded_p99_us,
        over.loaded_rps,
        over.loaded_p99_us / over.unloaded_p99_us.max(1.0),
        over.loaded_rps / over.unloaded_rps.max(1.0),
        over.served,
        over.shed,
        over.shed_violations,
        over.errors,
        over.server_survived,
    ));
    out.push_str(&format!(
        "  \"connection_flood\": {{\"attempted\": {}, \"cap\": {}, \"admitted\": {}, \"rejected\": {}, \"contract_violations\": {}, \"server_survived\": {}}},\n",
        flood.attempted,
        flood.cap,
        flood.admitted,
        flood.rejected,
        flood.contract_violations,
        flood.server_survived,
    ));
    out.push_str(&format!(
        "  \"slowloris\": {{\"swarm\": {}, \"cap\": {}, \"attacker_conns_terminated\": {}, \"peak_connections_active\": {:.0}, \"scrape_samples\": {}, \"victim_served\": {}, \"victim_shed\": {}, \"server_survived\": {}}},\n",
        loris.swarm,
        loris.cap,
        loris.reaped,
        loris.max_active,
        loris.scrape_samples,
        loris.victim_exchanges,
        loris.victim_shed,
        loris.server_survived,
    ));
    out.push_str(&format!(
        "  \"shed_slow_service\": {{\"served\": {}, \"shed_503s\": {}, \"contract_violations\": {}, \"bx_server_shed_total\": {:.0}, \"server_survived\": {}}},\n",
        shed.served,
        shed.shed,
        shed.shed_violations,
        shed.shed_total_metric,
        shed.server_survived,
    ));
    out.push_str(&format!(
        "  \"stalled_readers\": {{\"stalled\": {}, \"killed_by_write_budget\": {}, \"victim_served\": {}, \"server_survived\": {}}}\n",
        stalled.stalled,
        stalled.killed,
        stalled.victim_exchanges,
        stalled.server_survived,
    ));
    out.push_str("}\n");
    print!("{out}");

    let healthy = over.server_survived
        && flood.server_survived
        && loris.server_survived
        && shed.server_survived
        && stalled.server_survived
        && over.shed_violations == 0
        && flood.contract_violations == 0
        && flood.admitted <= flood.cap
        && loris.max_active <= loris.cap as f64
        && loris.victim_exchanges > 0
        && stalled.killed == stalled.stalled;
    eprintln!(
        "loadgen overload: {}",
        if healthy { "all defenses held" } else { "DEFENSE BREACH" }
    );
    if !healthy {
        std::process::exit(1);
    }
}

fn full_grid() {
    eprintln!("loadgen: 10k-connection sustain");
    let (sustain, conn_rate) = sustain(10_000, Duration::from_secs(5));
    eprintln!(
        "  10000 conns in {:.1} s ({conn_rate:.0} conn/s), {} exchanges ({:.0} req/s), {} errors",
        sustain.connect_time.as_secs_f64(),
        sustain.exchanges,
        sustain.rps(),
        sustain.errors,
    );

    eprintln!("loadgen: keep-alive vs one-shot across the payload grid");
    let grid = keepalive_vs_close(&PAYLOAD_GRID, 64, Duration::from_secs(2), 4_000);

    // ---- JSON report (stdout) ----
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"pr\": 6,\n");
    out.push_str("  \"title\": \"Event-driven server core: readiness loop, HTTP keep-alive, 10k-connection load harness\",\n");
    out.push_str("  \"harness\": \"loadgen (epoll client, server in subprocess)\",\n");
    out.push_str("  \"machine_note\": \"1-core container; latencies from obs log2 histograms, so percentiles are power-of-two upper bounds\",\n");
    out.push_str(&format!(
        "  \"sustain_10k\": {{\"connections\": 10000, \"connect_secs\": {:.3}, \"connections_per_sec\": {:.0}, \"exchanges\": {}, \"req_per_sec\": {:.0}, \"errors\": {}, \"p50_us\": {:.1}, \"p99_us\": {:.1}, \"p999_us\": {:.1}}},\n",
        sustain.connect_time.as_secs_f64(),
        conn_rate,
        sustain.exchanges,
        sustain.rps(),
        sustain.errors,
        sustain.quantile_us(0.5),
        sustain.quantile_us(0.99),
        sustain.quantile_us(0.999),
    ));
    out.push_str("  \"keepalive_vs_close_64conn\": [\n");
    for (i, row) in grid.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"payload_bytes\": {}, \"keepalive_req_per_sec\": {:.0}, \"close_req_per_sec\": {:.0}, \"keepalive_p99_us\": {:.1}, \"close_p99_us\": {:.1}, \"keepalive_beats_close\": {}}}{}\n",
            row.payload,
            row.keepalive_rps,
            row.close_rps,
            row.keepalive_p99_us,
            row.close_p99_us,
            row.keepalive_rps > row.close_rps,
            if i + 1 < grid.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    print!("{out}");

    let all_beat = grid.iter().all(|r| r.keepalive_rps > r.close_rps);
    eprintln!(
        "loadgen: keep-alive beats one-shot at every payload size: {}",
        if all_beat { "yes" } else { "NO" }
    );
    if sustain.errors > 0 || !all_beat {
        std::process::exit(1);
    }
}
