//! The fuzzing runtime: argument parsing, corpus replay, the mutation
//! loop, crash minimization, and artifact writing.
//!
//! Understands the subset of libFuzzer's command line that the scripts
//! and humans here actually use:
//!
//! * `-runs=N` — stop after N executions (replay included)
//! * `-max_total_time=SECS` — stop after a wall-clock budget
//! * `-seed=N` — RNG seed (default 1; runs are deterministic per seed)
//! * `-max_len=N` — cap mutated input length (default 4096 or the
//!   largest seed, whichever is bigger)
//! * `-artifact_prefix=PATH/` — where crashers are written
//! * positional directories — corpus dirs, replayed before mutation
//! * positional files — reproduce mode: run each once, then exit
//!
//! With neither `-runs` nor `-max_total_time`, a 30-second budget
//! applies so a bare invocation terminates.
//!
//! Crashing inputs are greedily minimized by chunk removal while they
//! still crash, written to the artifact directory as `crash-<hash>`,
//! and the process exits nonzero.

use std::cell::RefCell;
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::cov;
use crate::mutate::{havoc, Rng};

thread_local! {
    /// Last panic message the quiet hook captured on this thread. The
    /// hook runs on the panicking thread, so each `exec` reads its own
    /// target's message even while other threads panic too.
    static PANIC_MSG: RefCell<Option<String>> = const { RefCell::new(None) };
}

/// Runtime configuration parsed from the command line.
struct Config {
    runs: Option<u64>,
    max_total_time: Option<u64>,
    seed: u64,
    max_len: Option<usize>,
    artifact_prefix: Option<String>,
    corpus_dirs: Vec<PathBuf>,
    repro_files: Vec<PathBuf>,
}

fn parse_args(args: &[String]) -> Config {
    let mut cfg = Config {
        runs: None,
        max_total_time: None,
        seed: 1,
        max_len: None,
        artifact_prefix: None,
        corpus_dirs: Vec::new(),
        repro_files: Vec::new(),
    };
    for a in args {
        if let Some(v) = a.strip_prefix("-runs=") {
            cfg.runs = v.parse().ok();
        } else if let Some(v) = a.strip_prefix("-max_total_time=") {
            cfg.max_total_time = v.parse().ok();
        } else if let Some(v) = a.strip_prefix("-seed=") {
            cfg.seed = v.parse().unwrap_or(1);
        } else if let Some(v) = a.strip_prefix("-max_len=") {
            cfg.max_len = v.parse().ok();
        } else if let Some(v) = a.strip_prefix("-artifact_prefix=") {
            cfg.artifact_prefix = Some(v.to_string());
        } else if a.starts_with('-') {
            eprintln!("INFO: ignoring unsupported flag {a}");
        } else {
            let p = PathBuf::from(a);
            if p.is_dir() {
                cfg.corpus_dirs.push(p);
            } else {
                cfg.repro_files.push(p);
            }
        }
    }
    cfg
}

/// Install a panic hook that records the message instead of printing a
/// backtrace — the loop catches thousands of candidate panics during
/// minimization and must not spam stderr.
fn install_quiet_hook() {
    panic::set_hook(Box::new(|info| {
        let msg = if let Some(s) = info.payload().downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = info.payload().downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        };
        let loc = info
            .location()
            .map(|l| format!("{}:{}:{}", l.file(), l.line(), l.column()))
            .unwrap_or_else(|| "<unknown>".to_string());
        // `try_with`: a panic during thread teardown has no slot left.
        let _ =
            PANIC_MSG.try_with(|m| *m.borrow_mut() = Some(format!("panicked at {loc}:\n{msg}")));
    }));
}

/// Run the target once; `Err(message)` if it panicked.
fn exec(target: &mut dyn FnMut(&[u8]), data: &[u8]) -> Result<(), String> {
    cov::reset_counters();
    PANIC_MSG.with(|m| m.borrow_mut().take());
    match panic::catch_unwind(AssertUnwindSafe(|| target(data))) {
        Ok(()) => Ok(()),
        Err(_) => Err(PANIC_MSG
            .with(|m| m.borrow_mut().take())
            .unwrap_or_else(|| "panic with no captured message".to_string())),
    }
}

/// FNV-1a over the input, for stable artifact names.
fn fnv64(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Load every regular file under the corpus directories, smallest first
/// (small inputs replay and mutate faster), name-tie-broken for
/// determinism.
fn load_corpus(dirs: &[PathBuf]) -> Vec<Vec<u8>> {
    let mut files: Vec<(u64, PathBuf)> = Vec::new();
    for dir in dirs {
        let Ok(entries) = std::fs::read_dir(dir) else {
            eprintln!("WARN: cannot read corpus dir {}", dir.display());
            continue;
        };
        for entry in entries.flatten() {
            let p = entry.path();
            if p.is_file() {
                let len = entry.metadata().map(|m| m.len()).unwrap_or(0);
                files.push((len, p));
            }
        }
    }
    files.sort();
    files
        .into_iter()
        .filter_map(|(_, p)| std::fs::read(&p).ok())
        .collect()
}

/// Greedy chunk-removal minimization: halving chunk sizes, drop any
/// chunk whose removal still crashes. Bounded by an execution budget so
/// pathological inputs cannot stall the run.
fn minimize(target: &mut dyn FnMut(&[u8]), input: &[u8]) -> Vec<u8> {
    let mut cur = input.to_vec();
    let mut budget: usize = 2000;
    let mut chunk = (cur.len() / 2).max(1);
    loop {
        let mut i = 0;
        while i + chunk <= cur.len() && budget > 0 {
            budget -= 1;
            let mut cand = cur.clone();
            cand.drain(i..i + chunk);
            if exec(target, &cand).is_err() {
                cur = cand;
            } else {
                i += chunk;
            }
        }
        if chunk == 1 || budget == 0 {
            break;
        }
        chunk /= 2;
    }
    cur
}

/// Write a crashing input to the artifact directory; returns its path.
fn write_artifact(prefix: &str, data: &[u8]) -> PathBuf {
    let dir = Path::new(prefix);
    if prefix.ends_with('/') || dir.is_dir() {
        let _ = std::fs::create_dir_all(dir);
    } else if let Some(parent) = dir.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    let path = PathBuf::from(format!("{prefix}crash-{:016x}", fnv64(data)));
    if let Err(e) = std::fs::write(&path, data) {
        eprintln!("ERROR: cannot write artifact {}: {e}", path.display());
    }
    path
}

fn report_crash(target: &mut dyn FnMut(&[u8]), input: &[u8], msg: &str, prefix: &str) -> ! {
    eprintln!("==CRASH== {msg}");
    let min = minimize(target, input);
    let path = write_artifact(prefix, &min);
    eprintln!(
        "==CRASH== minimized {} -> {} bytes, artifact written to {}",
        input.len(),
        min.len(),
        path.display()
    );
    std::process::exit(1);
}

/// Fuzzing entry point; `name` is the fuzz target's binary name and
/// `target` the user-supplied body. Never returns on crash (exits 1).
pub fn run(name: &str, mut target: impl FnMut(&[u8])) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = parse_args(&args);
    install_quiet_hook();
    let prefix = cfg
        .artifact_prefix
        .clone()
        .unwrap_or_else(|| format!("fuzz/artifacts/{name}/"));

    // Reproduce mode: run each file once, loudly, and exit.
    if !cfg.repro_files.is_empty() {
        for f in &cfg.repro_files {
            let data = match std::fs::read(f) {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("ERROR: cannot read {}: {e}", f.display());
                    std::process::exit(2);
                }
            };
            match exec(&mut target, &data) {
                Ok(()) => eprintln!("OK: {} ({} bytes)", f.display(), data.len()),
                Err(msg) => {
                    eprintln!("==CRASH== reproducing {}: {msg}", f.display());
                    std::process::exit(1);
                }
            }
        }
        return;
    }

    let mut rng = Rng::new(cfg.seed);
    let mut corpus = load_corpus(&cfg.corpus_dirs);
    if corpus.is_empty() {
        corpus.push(vec![0u8]);
    }
    let max_len = cfg
        .max_len
        .unwrap_or_else(|| corpus.iter().map(Vec::len).max().unwrap_or(0).max(4096));

    let deadline = match (cfg.runs, cfg.max_total_time) {
        (None, None) => Some(Instant::now() + Duration::from_secs(30)),
        (_, Some(secs)) => Some(Instant::now() + Duration::from_secs(secs)),
        (Some(_), None) => None,
    };

    if !cov::instrumented() {
        eprintln!("INFO: {name}: no coverage instrumentation; blind corpus mutation");
    }

    // Replay the corpus first so checked-in reproducers always run.
    let mut execs: u64 = 0;
    let mut covered = 0usize;
    for input in &corpus {
        if let Err(msg) = exec(&mut target, input) {
            report_crash(&mut target, input, &msg, &prefix);
        }
        execs += 1;
        covered = cov::snapshot_new_coverage().1;
    }
    eprintln!(
        "INFO: {name}: replayed {} corpus inputs, {covered} edges covered",
        corpus.len()
    );

    // Mutation loop.
    loop {
        if let Some(n) = cfg.runs {
            if execs >= n {
                break;
            }
        }
        if let Some(d) = deadline {
            // Check time every iteration; Instant::now is cheap relative
            // to a parser execution.
            if Instant::now() >= d {
                break;
            }
        }
        let mut input = corpus[rng.below(corpus.len())].clone();
        let other = &corpus[rng.below(corpus.len())];
        let other = other.clone();
        havoc(&mut input, Some(&other), max_len, &mut rng);
        if let Err(msg) = exec(&mut target, &input) {
            report_crash(&mut target, &input, &msg, &prefix);
        }
        execs += 1;
        let (new, cov_now) = cov::snapshot_new_coverage();
        covered = cov_now;
        if new {
            corpus.push(input);
        }
        if execs.is_multiple_of(16384) {
            eprintln!("INFO: {name}: {execs} execs, corpus {}, edges {covered}", corpus.len());
        }
    }
    eprintln!(
        "INFO: {name}: done — {execs} execs, corpus {}, edges {covered}, no crashes",
        corpus.len()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_args_understands_libfuzzer_subset() {
        let args: Vec<String> = [
            "-runs=100",
            "-max_total_time=5",
            "-seed=9",
            "-max_len=64",
            "-artifact_prefix=art/",
            "-unknown_flag=1",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let cfg = parse_args(&args);
        assert_eq!(cfg.runs, Some(100));
        assert_eq!(cfg.max_total_time, Some(5));
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.max_len, Some(64));
        assert_eq!(cfg.artifact_prefix.as_deref(), Some("art/"));
        assert!(cfg.corpus_dirs.is_empty());
        assert!(cfg.repro_files.is_empty());
    }

    #[test]
    fn exec_catches_panics_and_reports_message() {
        install_quiet_hook();
        let mut target = |data: &[u8]| {
            if data.first() == Some(&b'!') {
                panic!("boom on bang");
            }
        };
        assert!(exec(&mut target, b"ok").is_ok());
        let err = exec(&mut target, b"!x").unwrap_err();
        assert!(err.contains("boom on bang"), "got: {err}");
    }

    #[test]
    fn minimize_shrinks_to_the_crashing_byte() {
        install_quiet_hook();
        let mut target = |data: &[u8]| {
            if data.contains(&0xEE) {
                panic!("sentinel byte");
            }
        };
        let input: Vec<u8> = (0..200u8).map(|i| if i == 137 { 0xEE } else { i }).collect();
        let min = minimize(&mut target, &input);
        assert_eq!(min, vec![0xEE]);
    }

    #[test]
    fn fnv64_is_stable() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv64(b"a"), fnv64(b"b"));
    }
}
