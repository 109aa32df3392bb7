//! A loopback SOAP benchmark: real calls through the production servers
//! and engine, timed end to end, and in a separate traced run split into
//! the layers they pass through. See README.md for the workloads, the
//! metrics and how to run it.
//!
//! Load model: one process, one client thread, a closed loop with one
//! outstanding call. Calls alternate between the workload's two engine
//! instantiations, each holding one keep-alive connection to its own
//! in-process server.

pub mod fetch;
pub mod trace;
pub mod workload;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bxsoap::soap::SoapResult;

use fetch::Dataset;
use trace::{Analysis, Codec, Layer, Wire};
use workload::{build_leg, CallPlan, Leg, Op, Pairs, Spec, LEGS};

const USAGE: &str = "usage: soapbench --workload <small_rpc|table1_rpc|bulk_upload|bulk_download> \
--seed <n> --seconds <s> [--trace-out <file>]";

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Calls per timing chunk: each leg's p99 in a chunk has ten samples
/// beyond it. Every run times at least one chunk.
const CHUNK_CALLS: usize = 2000;
/// Calls whose raw spans are written to the trace file.
const KEEP_CALLS: u64 = 2000;
/// Bytes per (i32 index, f64 value) pair.
const PAIR_BYTES: f64 = 12.0;

/// Parsed command line.
#[derive(Debug)]
pub struct Args {
    workload: &'static Spec,
    seed: u64,
    seconds: f64,
    trace_out: Option<PathBuf>,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace_out) = (None, None, None, None);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("bad {flag} value {value:?}: {what}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(workload::spec(&value).ok_or_else(|| bad("unknown workload"))?)
                }
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e.to_string()))?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|e| bad(&e.to_string()))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(bad("must be in (0, 600]"));
                    }
                    seconds = Some(s);
                }
                "--trace-out" => trace_out = Some(PathBuf::from(value)),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace_out,
        })
    }
}

/// Entry point shared by both binaries: built with the `trace` feature
/// it makes the traced run, without it the untraced one. Exit codes: 0
/// done, 1 a wrong reply or a failed set-up, 2 a bad command line.
pub fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("soapbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let result = if cfg!(feature = "trace") {
        run_traced(&args)
    } else {
        run_untraced(&args)
    };
    match result {
        Ok(report) => {
            report.print();
            if !report.correct {
                eprintln!("soapbench: wrong replies: {}", report.wrong);
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("soapbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Both legs of a workload, set up and warm.
struct Stack {
    legs: Vec<Box<dyn Leg>>,
    plan: CallPlan,
}

impl Stack {
    /// Generate the dataset, bind both servers, connect both engines and
    /// make the workload's warm-up calls. Returns the stack and how long
    /// all that took.
    fn set_up(spec: &Spec, seed: u64, traced: bool) -> Result<(Stack, Duration), String> {
        let start = Instant::now();
        let plan = CallPlan::new(spec, seed);
        let data = Arc::new(Dataset::new(plan.max_pairs(), seed));
        let legs = spec
            .legs
            .iter()
            .map(|&(codec, wire)| build_leg(spec.op, codec, wire, traced, &data))
            .collect::<SoapResult<Vec<_>>>()
            .map_err(|e| format!("set-up failed: {e}"))?;
        let mut stack = Stack { legs, plan };
        for i in 0..spec.warmup_calls {
            let pairs = stack.plan.pairs(i);
            let leg = stack.leg(i);
            leg.call(pairs)
                .map_err(|e| format!("warm-up call {i} failed: {e}"))?;
            if !leg.check(pairs) {
                return Err(format!("warm-up call {i} got a wrong reply"));
            }
        }
        Ok((stack, start.elapsed()))
    }

    fn leg(&mut self, call: u64) -> &mut Box<dyn Leg> {
        let n = self.legs.len() as u64;
        &mut self.legs[(call % n) as usize]
    }

    fn http_reuses(&mut self) -> u64 {
        self.legs.iter_mut().map(|l| l.http_reuses()).sum()
    }

    fn shut_down(self) {
        for leg in self.legs {
            leg.shutdown();
        }
    }
}

/// The timing figures of one chunk of [`CHUNK_CALLS`] consecutive calls.
#[derive(Debug, Clone, Copy)]
struct Chunk {
    /// Calls per second spent inside calls.
    calls_per_s: f64,
    /// Dataset bytes (12 per pair) per second spent inside calls.
    mb_per_s: f64,
    /// Per-leg median latency, averaged over the legs.
    p50_ns: f64,
    /// Per-leg p99 latency, averaged over the legs.
    p99_ns: f64,
    /// Process CPU (all threads) per call, reply checks excluded.
    cpu_ns: f64,
}

/// What one measured stretch of calls produced.
///
/// Figures are kept per chunk, never per call, so the benchmark's own
/// memory does not grow with the number of calls (`peak_rss_mb` would
/// otherwise track speed).
struct Measured {
    chunks: Vec<Chunk>,
    calls: u64,
    /// Calls that returned an error.
    failed: u64,
    /// Calls whose reply was wrong.
    wrong: u64,
    first_error: Option<String>,
}

impl Measured {
    /// Calls made on leg `leg`.
    fn leg_calls(&self, leg: usize) -> u64 {
        (self.calls + (LEGS - 1 - leg) as u64) / LEGS as u64
    }

    /// The run's value of one chunk figure: its mean over chunks, less
    /// the highest and lowest tenth. The speed of a shared machine
    /// switches by tens of percent within seconds; a mean follows the
    /// share of time spent fast or slow smoothly (a median would jump
    /// between the two), and the trim drops one-off stalls.
    fn figure(&self, f: impl Fn(&Chunk) -> f64) -> f64 {
        let mut values: Vec<f64> = self.chunks.iter().map(f).collect();
        values.sort_by(f64::total_cmp);
        let trim = values.len() / 10;
        let kept = &values[trim..values.len() - trim];
        kept.iter().sum::<f64>() / kept.len() as f64
    }

    /// The run's value of a chunk's p99: its median over chunks. A burst
    /// of interference from the rest of the machine lifts the p99 of the
    /// few chunks it hits by up to 2x while their medians barely move,
    /// and a mean over chunks carries that into the run's figure.
    fn p99_figure(&self) -> f64 {
        let mut values: Vec<f64> = self.chunks.iter().map(|c| c.p99_ns).collect();
        values.sort_by(f64::total_cmp);
        quantile(&values, 0.5)
    }

    fn new() -> Measured {
        Measured {
            chunks: Vec::new(),
            calls: 0,
            failed: 0,
            wrong: 0,
            first_error: None,
        }
    }

    /// Make one chunk of [`CHUNK_CALLS`] calls on `stack`, alternating
    /// legs, and record its figures. Every reply is checked after its
    /// call's timed interval. With `analysis`, the call's spans are
    /// folded into it after every call.
    fn run_chunk(&mut self, stack: &mut Stack, mut analysis: Option<&mut Analysis>) {
        let mut latencies: [Vec<f64>; LEGS] =
            std::array::from_fn(|_| Vec::with_capacity(CHUNK_CALLS / LEGS));
        let (mut pairs_sent, mut check) = (0u64, Duration::ZERO);
        let cpu_start = process_cpu();
        for i in self.calls..self.calls + CHUNK_CALLS as u64 {
            let pairs = stack.plan.pairs(i);
            let leg = stack.leg(i);
            if analysis.is_some() {
                trace::set_engine_mode(i / 2 % 2 == 1);
            }
            let t0 = Instant::now();
            let result = trace::span(Layer::Call, || leg.call(pairs));
            let t1 = Instant::now();
            match result {
                Ok(()) if leg.check(pairs) => {}
                Ok(()) => self.wrong += 1,
                Err(e) => {
                    self.failed += 1;
                    self.first_error.get_or_insert_with(|| e.to_string());
                }
            }
            check += t1.elapsed();
            if let Some(a) = analysis.as_deref_mut() {
                a.absorb(i);
            }
            latencies[(i % LEGS as u64) as usize].push((t1 - t0).as_nanos() as f64);
            pairs_sent += pairs as u64;
        }
        self.calls += CHUNK_CALLS as u64;
        let cpu = process_cpu()
            .saturating_sub(cpu_start)
            .saturating_sub(check);
        let busy_s = latencies.iter().flatten().sum::<f64>() / 1e9;
        let (mut p50, mut p99) = (0.0, 0.0);
        for own in &mut latencies {
            own.sort_by(f64::total_cmp);
            p50 += quantile(own, 0.50) / LEGS as f64;
            p99 += quantile(own, 0.99) / LEGS as f64;
        }
        self.chunks.push(Chunk {
            calls_per_s: CHUNK_CALLS as f64 / busy_s,
            mb_per_s: pairs_sent as f64 * PAIR_BYTES / busy_s / 1e6,
            p50_ns: p50,
            p99_ns: p99,
            cpu_ns: cpu.as_nanos() as f64 / CHUNK_CALLS as f64,
        });
    }
}

/// A metric as printed.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// Everything one run prints.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    wrong: u64,
    notes: Vec<String>,
    metrics: Vec<Metric>,
}

impl Report {
    fn new(m: &Measured) -> Report {
        let mut notes = Vec::new();
        if let Some(e) = &m.first_error {
            notes.push(format!("first call error: {e}"));
        }
        Report {
            correct: m.wrong == 0,
            attempted: m.calls,
            failed: m.failed + m.wrong,
            wrong: m.wrong,
            notes,
            metrics: Vec::new(),
        }
    }

    fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Human-readable lines, then the JSON summary as the last line.
    fn print(&self) {
        for note in &self.notes {
            println!("# {note}");
        }
        for m in &self.metrics {
            println!("{:<40} {:>16.4} {}", m.name, m.value, m.unit);
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// The end-to-end run: set up, measure, then set up [`SETUPS`]` - 1`
/// more times for the set-up time's median. The peak RSS is read before
/// those extra set-ups, so it covers one stack and its calls.
fn run_untraced(args: &Args) -> Result<Report, String> {
    let spec = args.workload;
    let (mut stack, took) = Stack::set_up(spec, args.seed, false)?;
    let mut setups = vec![took.as_secs_f64()];
    let limit = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut m = Measured::new();
    while m.chunks.is_empty() || start.elapsed() < limit {
        m.run_chunk(&mut stack, None);
    }
    let peak_rss = peak_rss_mb()?;
    stack.shut_down();
    while setups.len() < SETUPS {
        let (stack, took) = Stack::set_up(spec, args.seed, false)?;
        setups.push(took.as_secs_f64());
        stack.shut_down();
    }

    let mut report = Report::new(&m);
    report.notes.push(format!(
        "workload={} seed={} seconds={} calls={} chunks={} error_rate={} ({} of {})",
        spec.name,
        args.seed,
        args.seconds,
        m.calls,
        m.chunks.len(),
        report.failed as f64 / m.calls as f64,
        report.failed,
        m.calls
    ));
    report.add("calls_per_s", m.figure(|c| c.calls_per_s), "1/s");
    report.add("latency_p50_us", m.figure(|c| c.p50_ns) / 1e3, "us");
    report.add("latency_p99_us", m.p99_figure() / 1e3, "us");
    report.add("payload_mb_per_s", m.figure(|c| c.mb_per_s), "MB/s");
    report.add("cpu_us_per_call", m.figure(|c| c.cpu_ns) / 1e3, "us");
    report.add("peak_rss_mb", peak_rss, "MB");
    report.add(
        "success_rate",
        (m.calls - report.failed) as f64 / m.calls as f64,
        "ratio",
    );
    report.notes.push(format!("set-ups (s): {setups:.4?}"));
    setups.sort_by(f64::total_cmp);
    report.add("setup_s", quantile(&setups, 0.5), "s");
    Ok(report)
}

/// The per-layer run: one stack built from the tracing wrappers, with
/// span recording switched on and off in alternating chunks. The chunks
/// with recording off (each wrapper then forwards after one flag check)
/// are the baseline for `trace.overhead_pct`; alternating lets both see
/// the same machine, and a single stack keeps the process's memory as in
/// the untraced run. Counters are deltas over the traced chunks only.
fn run_traced(args: &Args) -> Result<Report, String> {
    let spec = args.workload;
    let (mut stack, _) = Stack::set_up(spec, args.seed, true)?;
    let mut baseline = Measured::new();
    let mut traced = Measured::new();
    let mut analysis = Analysis::new(KEEP_CALLS);
    let mut deltas = BTreeMap::<String, f64>::new();
    let mut reuses = 0;
    let limit = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    while traced.chunks.is_empty() || start.elapsed() < limit {
        baseline.run_chunk(&mut stack, None);
        let (before, reuses_before) = (counters(), stack.http_reuses());
        trace::set_enabled(true);
        traced.run_chunk(&mut stack, Some(&mut analysis));
        trace::set_enabled(false);
        reuses += stack.http_reuses() - reuses_before;
        for (name, after) in counters() {
            let before = before.get(&name).copied().unwrap_or(0);
            *deltas.entry(name).or_insert(0.0) += after.saturating_sub(before) as f64;
        }
    }
    stack.shut_down();

    let mut report = Report::new(&traced);
    report.attempted += baseline.calls;
    report.failed += baseline.failed + baseline.wrong;
    report.wrong += baseline.wrong;
    report.correct &= baseline.wrong == 0;
    report.notes.push(format!(
        "workload={} seed={} seconds={} untraced_calls={} traced_calls={}",
        spec.name, args.seed, args.seconds, baseline.calls, traced.calls
    ));
    let calls = traced.calls as f64;

    for (slot, name) in trace::REPORTED.iter().enumerate() {
        let mut samples = analysis.samples(slot).to_vec();
        samples.sort_unstable();
        let mean = if samples.is_empty() {
            0.0
        } else {
            samples.iter().map(|&n| n as f64).sum::<f64>() / samples.len() as f64
        };
        if let Some(base) = name.strip_prefix("trace.") {
            report.add(format!("trace.{base}_us"), mean / 1e3, "us");
        } else {
            report.add(format!("{name}.us"), mean / 1e3, "us");
            let p99 = if samples.is_empty() {
                0.0
            } else {
                quantile(&samples, 0.99)
            };
            report.add(format!("{name}.p99_us"), p99 / 1e3, "us");
        }
    }
    for layer in trace::COUNTED {
        let allocs = analysis.allocs(layer).unwrap_or(0.0);
        report.add(format!("{}.allocs", layer.name()), allocs, "count");
    }

    let delta = |name: &str| deltas.get(name).copied().unwrap_or(0.0);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let http_calls: u64 = (0..LEGS)
        .filter(|&leg| spec.legs[leg].1 == Wire::Http)
        .map(|leg| traced.leg_calls(leg))
        .sum();
    report.add(
        "engine.attempts_per_call",
        ratio(
            delta("bx_engine_attempts_total"),
            delta("bx_engine_calls_total"),
        ),
        "ratio",
    );
    report.add("engine.retries", delta("bx_engine_retries_total"), "count");
    report.add(
        "http.reuse_ratio",
        ratio(reuses as f64, http_calls as f64),
        "ratio",
    );
    let hits = delta("bx_pool_hits_total");
    report.add(
        "pool.hit_ratio",
        ratio(hits, hits + delta("bx_pool_misses_total")),
        "ratio",
    );
    report.add(
        "reactor.loop_iters_per_call",
        delta("bx_server_worker_loop_iterations_total") / calls,
        "count",
    );
    report.add(
        "server.connection_errors",
        delta("bx_server_connection_errors_total"),
        "count",
    );
    report.add("server.shed", delta("bx_server_shed_total"), "count");
    report.add(
        "wire.request_bytes",
        delta("bx_server_bytes_in_total") / calls,
        "B",
    );
    report.add(
        "wire.reply_bytes",
        delta("bx_server_bytes_out_total") / calls,
        "B",
    );
    let base_cps = baseline.figure(|c| c.calls_per_s);
    let traced_cps = traced.figure(|c| c.calls_per_s);
    report.add(
        "trace.overhead_pct",
        100.0 * (base_cps - traced_cps) / base_cps,
        "%",
    );
    report.add("trace.unlinked_spans", analysis.unlinked as f64, "count");
    report.add(
        "model.cpu_ratio",
        model_cpu_ratio(spec, args.seed, &analysis, calls),
        "ratio",
    );

    if let Some(path) = &args.trace_out {
        write_spans(path, &analysis).map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(report)
}

/// ROADMAP's composition check: the fig4–6 model's measured CPU cost of
/// one call (`bench::CpuCosts` request encode + decode for each leg's
/// codec, plus the verify sweep), over the traced codec and handler
/// time of a real call. 0 where the model does not apply (varying or
/// typed payloads).
fn model_cpu_ratio(spec: &Spec, seed: u64, analysis: &Analysis, calls: f64) -> f64 {
    let (Op::Verify, Pairs::Fixed(pairs)) = (spec.op, spec.pairs) else {
        return 0.0;
    };
    let workload = bench::Workload::prepare(pairs, seed);
    let reps = if pairs > 10_000 { 10 } else { 50 };
    let costs = bench::CpuCosts::measure(&workload, reps);
    let model: f64 = spec
        .legs
        .iter()
        .map(|(codec, _)| {
            let codec = match codec {
                Codec::Bxsa => costs.bxsa_encode + costs.bxsa_decode,
                Codec::Xml => costs.xml_encode + costs.xml_decode,
            };
            (codec + costs.verify).as_secs_f64()
        })
        .sum::<f64>()
        / spec.legs.len() as f64;
    let traced_ns: f64 = trace::REPORTED
        .iter()
        .enumerate()
        .filter(|(_, name)| name.starts_with("codec.") || **name == "service.handler")
        .map(|(slot, _)| {
            analysis
                .samples(slot)
                .iter()
                .map(|&n| n as f64)
                .sum::<f64>()
        })
        .sum();
    model / (traced_ns / 1e9 / calls)
}

/// Write the kept spans as JSON lines: one object per span.
fn write_spans(path: &std::path::Path, analysis: &Analysis) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for k in analysis.kept() {
        let s = &k.span;
        let parent = if s.parent == trace::NO_PARENT {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        let allocs = s.allocs.map_or("null".to_string(), |n| n.to_string());
        writeln!(
            out,
            "{{\"call\": {}, \"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"thread\": \"{}\", \
             \"start_ns\": {}, \"end_ns\": {}, \"allocs\": {allocs}}}",
            k.call,
            k.index,
            s.layer.name(),
            if k.server { "server" } else { "client" },
            s.start,
            s.end,
        )?;
    }
    out.flush()
}

/// Every counter in `obs::global()`, summed over its label rows.
fn counters() -> BTreeMap<String, u64> {
    let mut totals = BTreeMap::new();
    for sample in obs::global().snapshot() {
        if let obs::SampleValue::Counter(n) = sample.value {
            *totals.entry(sample.name).or_insert(0) += n;
        }
    }
    totals
}

/// Linear-interpolated quantile of sorted, non-empty samples.
fn quantile<T: Copy + Into<f64>>(sorted: &[T], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    let (a, b) = (sorted[lo].into(), sorted[hi].into());
    a + (b - a) * (pos - lo as f64)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("soapbench reads Linux process clocks and /proc; it needs 64-bit Linux");

/// User + system CPU time of the whole process (all threads), to the
/// nanosecond: `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)`. (The tick
/// counts in `/proc/self/stat` are too coarse for one chunk.)
fn process_cpu() -> Duration {
    /// `struct timespec` on 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` with the C layout of
    // 64-bit Linux, and clock_gettime writes nothing but it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Peak resident set size (VmHWM) in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args("--workload small_rpc --seed 7 --seconds 10 --trace-out t.jsonl").unwrap();
        assert_eq!(
            (a.workload.name, a.seed, a.seconds, a.trace_out),
            ("small_rpc", 7, 10.0, Some(PathBuf::from("t.jsonl")))
        );
        assert!(args("--workload nope --seed 7 --seconds 10").is_err());
        assert!(args("--workload small_rpc --seed 7 --seconds 0").is_err());
        assert!(args("--workload small_rpc --seed 7").is_err());
        assert!(args("--workload small_rpc --seed 7 --seconds 10 --trace 1").is_err());
    }

    #[test]
    fn quantiles_interpolate() {
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 51.0);
        assert_eq!(quantile(&v, 0.99), 100.0);
        assert_eq!(quantile(&[5u32], 0.99), 5.0);
    }

    #[test]
    fn process_readers_work() {
        let before = process_cpu();
        let spin = Instant::now();
        while spin.elapsed() < Duration::from_millis(20) {
            std::hint::black_box(spin.elapsed());
        }
        assert!(process_cpu() - before >= Duration::from_millis(10));
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
