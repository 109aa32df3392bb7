#!/usr/bin/env bash
# CI gate: release build, full test suite (including the zero-allocation
# steady-state check behind the bench crate's alloc-counter feature), the
# fault-injection resilience job, and warning-free clippy.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
# --no-fail-fast: one crate's failing test must not hide the results of
# the crates after it; the step still fails if any test failed.
cargo test -q --workspace --no-fail-fast
# Zero-allocation steady-state gates: encode (PR 1) and decode (PR 3).
# `steady_state_decode_is_allocation_free` fails this step — and the
# build — if a change reintroduces per-message decode allocation.
# The same step runs the byte gates: a warm 100k-pair tree Verify must
# allocate under 64 KiB per call, server-side, through call_with, and
# on both sides of the live HTTP server, so no layer may copy the bulk
# payload again; and a warm small Verify over HTTP may allocate no more
# than over TCP, so the HTTP leg keeps no per-exchange fixed costs.
# `bulk_view_verify_is_allocation_free` holds the view path to zero: a
# warm 100k-pair BXSA Verify through SoapService::handle with
# register_verify reads both arrays in place and allocates nothing.
cargo test -q -p bench --features alloc-counter --lib

# Decode benches: run the codec-throughput ablation and require that the
# decode-path benchmarks (including the reused-document `*_into`
# variants) actually execute and report. Medians across runs are
# recorded per-PR in BENCH_PR*.json; this step keeps the benches alive.
codec_log="$(mktemp)"
cargo bench -p bench --bench codec_throughput 2>&1 | tee "$codec_log"
for id in bxsa_decode bxsa_decode_into xml_decode xml_decode_into; do
    if ! grep -q "^BENCH {\"id\":\"codec_throughput/${id}/" "$codec_log"; then
        echo "bench: missing decode benchmark ${id}" >&2
        exit 1
    fi
done
# The small_rpc-sized XML decode rows (50 pairs, the workload's mean).
for id in xml_decode/50 xml_decode_into/50; do
    if ! grep -q "^BENCH {\"id\":\"codec_throughput/${id}\"" "$codec_log"; then
        echo "bench: missing decode benchmark ${id}" >&2
        exit 1
    fi
done
rm -f "$codec_log"

# Typed fast-path job (PR 8): the typed codec benches must exist and
# report (tree-vs-typed medians are recorded per-PR in BENCH_PR8.json by
# the typed_fastpath bin); the typed steady state must pass the
# alloc-counter zero-allocation gate (covered by the alloc-counter step
# above via typed_steady_state_is_allocation_free); and the seed-corpus
# fuzz smoke must feed mutated typed envelopes to the typed decoders on
# both encodings without a panic anywhere in the log.
typed_log="$(mktemp)"
cargo bench -p bench --bench typed_codec 2>&1 | tee "$typed_log"
for id in typed_bxsa_encode typed_bxsa_decode typed_xml_encode typed_xml_decode; do
    if ! grep -q "^BENCH {\"id\":\"typed_codec/${id}/" "$typed_log"; then
        echo "bench: missing typed benchmark ${id}" >&2
        exit 1
    fi
done
rm -f "$typed_log"
typed_fuzz_log="$(mktemp)"
cargo test -q --test typed_fuzz_smoke -- --nocapture 2>&1 | tee "$typed_fuzz_log"
if grep -q "panicked at" "$typed_fuzz_log"; then
    echo "typed: panic detected in typed-decoder fuzz smoke" >&2
    exit 1
fi
rm -f "$typed_fuzz_log"

# Resilience job: drive the seeded torture corpus (mutated/truncated
# messages, flaky connects) through the decoders and both live servers,
# and assert nothing anywhere panicked — a panicking worker thread can
# hide behind a green test binary, so the log is grepped explicitly.
resilience_log="$(mktemp)"
trap 'rm -f "$resilience_log"' EXIT
RESILIENCE_SEED=${RESILIENCE_SEED:-1} cargo test -q --test resilience -- --nocapture \
    2>&1 | tee "$resilience_log"
if grep -q "panicked at" "$resilience_log"; then
    echo "resilience: panic detected in fault-injection run" >&2
    exit 1
fi

# Failure-model job: end-to-end deadline propagation (3-hop budget,
# expired-on-arrival rejection, hop decrement) and circuit-breaker
# open/fast-fail/recover against real sockets, plus the seeded-clock
# breaker state-machine tests in the transport crate.
cargo test -q --test deadlines
cargo test -q -p transport breaker::

# Metrics job: the obs crate's primitives (multithreaded exactness,
# exposition shape), the live /metrics scrape + dump()-snapshot e2e
# tests, and the zero-allocation instrumentation gate (covered by the
# alloc-counter step above). Server diagnostics must flow through the
# typed error counters, not stderr — grep keeps eprintln! out of the
# server accept/serve paths for good.
cargo test -q -p obs
cargo test -q --test metrics
for f in crates/transport/src/tcpserver.rs crates/transport/src/http/server.rs \
         crates/transport/src/reactor/*.rs; do
    if grep -n 'eprintln!' "$f"; then
        echo "metrics: $f writes to stderr; use the obs error counters" >&2
        exit 1
    fi
done

# Server-runtime job: HTTP/1.1 keep-alive conformance (pipelining,
# Connection negotiation, half-close, client connection cache), then the
# load-harness smoke run — 1k concurrent keep-alive connections against
# the evented server, zero errors and a generous tail bound, plus the
# keep-alive-beats-one-shot sanity check. The full 10k grid is recorded
# per-PR in BENCH_PR6.json; this keeps the harness alive and honest.
cargo test -q --test keepalive
cargo run --release -p bench --bin loadgen -- --smoke

# Overload job: admission control, load shedding, and hostile-client
# defense. The integration tests pin the contracts (503 + Retry-After +
# Connection: close on HTTP, in-band retryable faults on framed TCP,
# slow-loris deadline kills, shed-vs-drop accounting across shutdown);
# the loadgen smoke run then proves them under real attack shapes —
# open-loop 2x overload, connection flood, a slow-loris swarm, stalled
# readers — against the release binary. The full-scale grid is recorded
# per-PR in BENCH_PR7.json. The shed-path allocation bound rides the
# alloc-counter step above.
cargo test -q --test overload
cargo run --release -p bench --bin loadgen -- --overload-smoke

# Evented means evented: connections are multiplexed onto the reactor's
# fixed worker pool (spawned via thread::Builder at bind time), so no
# per-connection thread::spawn may reappear on the serving path. Test
# modules are exempt (clients and fixtures there spawn freely).
for f in crates/transport/src/tcpserver.rs crates/transport/src/http/server.rs \
         crates/transport/src/fileserver.rs crates/transport/src/builder.rs \
         crates/transport/src/reactor/*.rs; do
    if awk '/#\[cfg\(test\)\]/{exit} {print}' "$f" | grep -n 'thread::spawn'; then
        echo "reactor: $f spawns per-connection threads; use the event loop" >&2
        exit 1
    fi
done

# One way to bind: ServerBuilder::bind (builder.rs) is the only public
# way to bind a transport server; FileServer::bind (fileserver.rs) is a
# handler on the same HTTP driver. Every serve_* returns the one
# transport::Server. No deprecated shim may come back in transport or
# soap either: delete a superseded entry point instead. Test modules are
# exempt.
bind_hits=$(find crates/transport/src -name '*.rs' | sort | while read -r f; do
    case "$f" in
        crates/transport/src/builder.rs | crates/transport/src/fileserver.rs) continue ;;
    esac
    awk '/#\[cfg\(test\)\]/{exit} {print}' "$f" | grep -n 'pub fn bind' | sed "s|^|$f:|" || true
done)
if [ -n "$bind_hits" ]; then
    echo "$bind_hits" >&2
    echo "bind: public bind outside ServerBuilder; bind servers through ServerBuilder" >&2
    exit 1
fi
deprecated_hits=$(find crates/transport/src crates/soap/src -name '*.rs' | sort | while read -r f; do
    awk '/#\[cfg\(test\)\]/{exit} {print}' "$f" | grep -n '#\[deprecated' | sed "s|^|$f:|" || true
done)
if [ -n "$deprecated_hits" ]; then
    echo "$deprecated_hits" >&2
    echo "deprecated: transport and soap keep no deprecated items; delete them" >&2
    exit 1
fi

# One handler shape: ServerBuilder (builder.rs) finishes a server with
# exactly two serve_* calls, serve_framed and serve_http, and both hand
# the handler per-connection scratch, a borrowed request and a reused
# reply. Per-connection buffers replaced the cross-connection pools, so
# no pool may come back in transport or soap either. Test modules are
# exempt from both gates.
serve_fns=$(awk '/#\[cfg\(test\)\]/{exit} {print}' crates/transport/src/builder.rs \
    | grep -oE 'pub fn serve_[a-z_]+' | sort | tr '\n' ' ')
if [ "$serve_fns" != "pub fn serve_framed pub fn serve_http " ]; then
    echo "builder: ServerBuilder finishers are [$serve_fns]; keep exactly serve_framed and serve_http" >&2
    exit 1
fi
pool_hits=$(find crates/transport/src crates/soap/src -name '*.rs' | sort | while read -r f; do
    awk '/#\[cfg\(test\)\]/{exit} {print}' "$f" | grep -nE 'Pool<|BufferPool|Mutex<Vec\b' | sed "s|^|$f:|" || true
done)
if [ -n "$pool_hits" ]; then
    echo "$pool_hits" >&2
    echo "pool: transport and soap keep buffers per connection; no shared pools" >&2
    exit 1
fi

# One frame parser: the BXSA frame grammar (prefix byte, padded size
# field) is parsed only in the frame core, crates/bxsa/src/frame.rs;
# every other reader goes through its cursor. Test modules are exempt.
for f in crates/bxsa/src/*.rs; do
    [ "$(basename "$f")" = frame.rs ] && continue
    if awk '/#\[cfg\(test\)\]/{exit} {print}' "$f" | grep -nE 'parse_prefix\(|read_vls_padded\('; then
        echo "bxsa: $f parses frame prefixes or sizes; use the frame core in frame.rs" >&2
        exit 1
    fi
done

# One XML array item loop: the byte scanner for plain `<x>text</x>` items
# (Lexer::next_simple_item) is called only from the item loop both XML
# readers share, Lexer::plain_items_into in crates/xmltext/src/lexer.rs,
# so the tree and typed readers cannot grow scanners that accept
# different bytes. Test modules are exempt.
scan_calls=$(for f in crates/xmltext/src/*.rs; do
    awk '/#\[cfg\(test\)\]/{exit} {print FILENAME ":" FNR ":" $0}' "$f" \
        | grep -E '\.next_simple_item\(' || true
done)
if [ "$(grep -c . <<<"$scan_calls")" -ne 1 ] \
   || ! grep -q '^crates/xmltext/src/lexer.rs:' <<<"$scan_calls" \
   || ! awk '/fn plain_items_into/{inside=1} inside && /\.next_simple_item\(/{found=1} inside && /^    }$/{exit} END{exit !found}' \
        crates/xmltext/src/lexer.rs; then
    echo "$scan_calls" >&2
    echo "xmltext: next_simple_item must be called only from Lexer::plain_items_into" >&2
    exit 1
fi

# One XML core: lexer events are read only by the XML core,
# crates/xmltext/src/markup.rs, which owns the element stack, attribute
# classification and document rules; the tree and typed readers and both
# writers are layers over it, so no reader can accept bytes another
# rejects. Test modules are exempt.
for f in crates/xmltext/src/*.rs; do
    case "$(basename "$f")" in lexer.rs | markup.rs) continue ;; esac
    if awk '/#\[cfg\(test\)\]/{exit} {print}' "$f" | grep -nE 'next_event\(|next_attr\(|Event::'; then
        echo "xmltext: $f reads lexer events; go through the XML core in markup.rs" >&2
        exit 1
    fi
done

# One number language: XML numbers parse through std, with the functions
# bxdm::AtomicValue::parse_as calls, so the typed and tree readers cannot
# accept different numbers. crates/xmltext/src/num.rs keeps the writers
# only: its non-test code defines no `fn parse_`, and with no parse table
# left to fill, no non-test workspace code calls `warm_up(`. Comments are
# skipped; test modules and tests/ directories are exempt.
num_hits=$({
    awk '/#\[cfg\(test\)\]/{exit} {sub(/\/\/.*/, ""); print FILENAME ":" FNR ":" $0}' \
        crates/xmltext/src/num.rs | grep -E '\bfn parse_' || true
    git ls-files '*.rs' | grep -vE '(^|/)tests/' | while read -r f; do
        awk '/#\[cfg\(test\)\]/{exit} {sub(/\/\/.*/, ""); print FILENAME ":" FNR ":" $0}' "$f" \
            | grep -E '\bwarm_up\(' || true
    done
})
if [ -n "$num_hits" ]; then
    echo "$num_hits" >&2
    echo "xmltext: numbers parse through std; num.rs keeps writers only, and nothing warms a parse table" >&2
    exit 1
fi

# One receive path: every SOAP node answers a `bx:Deadline` through one
# arrival gate, DeadlineHeader::admit in crates/soap/src/envelope.rs
# (admit_relay adds the hop check on top of it), so endpoints, typed
# operations, streamed manifests and relays cannot drift apart again.
# Outside that function, non-test soap code may not test `.expired()`
# or build a `deadline_expired(` fault. And SoapService::handle is the
# service's one byte entry point: no non-test code in the workspace may
# name the deleted handle_bytes* forks. Test modules are exempt.
read -r gate_from gate_to < <(awk '/fn admit\(/{from=FNR} from && !to && /^    }$/{to=FNR} END{print from+0, to+0}' \
    crates/soap/src/envelope.rs)
gate_hits=$(for f in crates/soap/src/*.rs; do
    awk '/#\[cfg\(test\)\]/{exit} {print FILENAME ":" FNR ":" $0}' "$f" \
        | grep -E '\.expired\(\)|deadline_expired\(' | grep -v 'pub fn deadline_expired(' || true
done)
stray_gates=$(while IFS=: read -r file line _; do
    [ -z "$file" ] && continue
    if [ "$file" != crates/soap/src/envelope.rs ] || [ "$line" -lt "$gate_from" ] \
       || [ "$line" -gt "$gate_to" ]; then
        echo "$file:$line"
    fi
done <<<"$gate_hits")
if [ "$gate_from" -eq 0 ] || [ -n "$stray_gates" ] \
   || ! grep -q '\.expired()' <<<"$gate_hits" || ! grep -q 'deadline_expired(' <<<"$gate_hits"; then
    echo "$stray_gates" >&2
    echo "soap: the bx:Deadline arrival decision belongs in DeadlineHeader::admit (envelope.rs) alone" >&2
    exit 1
fi
entry_hits=$(git ls-files '*.rs' | grep -vE '(^|/)tests/' | while read -r f; do
    awk '/#\[cfg\(test\)\]/{exit} {print}' "$f" | grep -n 'handle_bytes' | sed "s|^|$f:|" || true
done)
if [ -n "$entry_hits" ]; then
    echo "$entry_hits" >&2
    echo "soap: SoapService::handle is the one byte entry point; handle_bytes* is gone" >&2
    exit 1
fi

# One streamed exchange: the endpoint and the relay are two hops plugged
# into the one server-side session, streaming::Session in
# crates/soap/src/streaming.rs, so non-test soap code has exactly one
# `impl ... StreamSession for`. The stream metrics' part counters move in
# exactly two places: that impl (the server side) and HttpBinding's
# stream half, from `fn stream_begin` to the end of its impl block in
# crates/soap/src/binding.rs (the client side, shared by call_streaming
# and the relay's up-link). Comments are skipped; test modules are exempt.
session_impls=$(for f in crates/soap/src/*.rs; do
    awk '/#\[cfg\(test\)\]/{exit} {sub(/\/\/.*/, ""); print}' "$f" | tr '\n' ' ' \
        | grep -oE 'impl\b[^{};]*\bStreamSession\s+for\s+[A-Za-z_]+' | sed "s|^|$f: |" || true
done)
if [ "$(grep -c . <<<"$session_impls")" -ne 1 ] \
   || ! grep -q '^crates/soap/src/streaming.rs: ' <<<"$session_impls"; then
    echo "$session_impls" >&2
    echo "soap: one StreamSession impl (streaming.rs) serves every node; plug a Hop into it" >&2
    exit 1
fi
session_range=$(awk '!from && /^impl.*[^A-Za-z0-9_]StreamSession([^A-Za-z0-9_]|$)/{from=FNR} from && !to && /^}$/{to=FNR} END{print from+0, to+0}' \
    crates/soap/src/streaming.rs)
binding_range=$(awk '/fn stream_begin\(/{from=FNR} from && !to && /^}$/{to=FNR} END{print from+0, to+0}' \
    crates/soap/src/binding.rs)
count_hits=$(for f in crates/soap/src/*.rs; do
    [ "$f" = crates/soap/src/metrics.rs ] && continue
    awk '/#\[cfg\(test\)\]/{exit} {sub(/\/\/.*/, ""); print FILENAME ":" FNR ":" $0}' "$f" \
        | grep -E '\bparts_(in|out)\b' || true
done)
stray_counts=$(while IFS=: read -r file line _; do
    [ -z "$file" ] && continue
    case "$file" in
        crates/soap/src/streaming.rs) read -r from to <<<"$session_range" ;;
        crates/soap/src/binding.rs) read -r from to <<<"$binding_range" ;;
        *) from=1 to=0 ;;
    esac
    if [ "$line" -lt "$from" ] || [ "$line" -gt "$to" ]; then
        echo "$file:$line"
    fi
done <<<"$count_hits")
missing_sites=$(for site in streaming.rs:parts_in streaming.rs:parts_out binding.rs:parts_in binding.rs:parts_out; do
    grep -q "^crates/soap/src/${site%%:*}:.*\b${site##*:}\b" <<<"$count_hits" || echo "$site"
done)
if [ -n "$stray_counts" ] || [ -n "$missing_sites" ]; then
    printf '%s\n' $stray_counts $missing_sites >&2
    echo "soap: count streamed parts only in streaming::Session and HttpBinding's stream half" >&2
    exit 1
fi

# One part framing, one part cap: a streamed message is one standalone
# BXSA element frame per HTTP chunk, and each frame carries its own size,
# so no non-test workspace code names the second part framing that was
# deleted (FrameAssembler, FrameSink, DEFAULT_WINDOW). The cap on a part
# is one decision: non-test code in crates/soap/src and
# crates/transport/src defines `const MAX_PART_LEN` exactly once, in
# transport, and names no MAX_STREAM_PART. Comments are skipped; test
# modules and tests/ directories are exempt.
framing_hits=$(git ls-files '*.rs' | grep -vE '(^|/)tests/' | while read -r f; do
    awk '/#\[cfg\(test\)\]/{exit} {sub(/\/\/.*/, ""); print FILENAME ":" FNR ":" $0}' "$f" \
        | grep -E '\b(FrameAssembler|FrameSink|DEFAULT_WINDOW)\b' || true
done)
cap_hits=$(find crates/soap/src crates/transport/src -name '*.rs' | sort | while read -r f; do
    awk '/#\[cfg\(test\)\]/{exit} {sub(/\/\/.*/, ""); print FILENAME ":" FNR ":" $0}' "$f" \
        | grep -E '\bconst\s+MAX_PART_LEN\b|\bMAX_STREAM_PART\b' || true
done)
if [ -n "$framing_hits" ] || [ "$(grep -c . <<<"$cap_hits")" -ne 1 ] \
   || ! grep -qE '^crates/transport/src/[^:]+:[0-9]+:.*\bconst\s+MAX_PART_LEN\b' <<<"$cap_hits"; then
    printf '%s\n' "$framing_hits" "$cap_hits" >&2
    echo "streaming: one part framing (an element frame per chunk) and one part cap (transport::MAX_PART_LEN)" >&2
    exit 1
fi

# One source for each call setting: the engine holds the retry policy
# and the breaker, CallOptions holds idempotency and the deadline, and
# WireConfig (or a WSDL port) names the wire. No non-test code in
# crates/*/src, src/ or examples/ names the per-operation metadata layer
# or the per-call overrides that were deleted, and CallOptions has the
# fields idempotent and deadline only. Comments are skipped; test
# modules and tests/ directories are exempt.
setting_hits=$(git ls-files 'crates/*/src/*.rs' 'src/*.rs' 'examples/*.rs' | grep -vE '(^|/)tests/' \
    | while read -r f; do
    awk '/#\[cfg\(test\)\]/{exit} {sub(/\/\/.*/, ""); print FILENAME ":" FNR ":" $0}' "$f" \
        | grep -E '\b(OperationDefaults|ServiceMetadata|with_metadata|set_metadata|shared_metadata|with_operation_defaults|connect_for_operation|verify_operation_defaults|retry_override|resolve_options)\b' || true
done)
call_fields=$(awk '/^pub struct CallOptions \{/{inside=1; next} inside && /^\}/{exit}
    inside {sub(/\/\/.*/, "")} inside && /^ *pub [a-z_]+:/{sub(/^ *pub /, ""); sub(/:.*/, ""); print}' \
    crates/soap/src/engine.rs | tr '\n' ' ')
if [ -n "$setting_hits" ] || [ "$call_fields" != "idempotent deadline " ]; then
    printf '%s\n' "$setting_hits" "CallOptions fields: $call_fields" >&2
    echo "soap: retry and breaker come from the engine, idempotency and deadline from CallOptions" >&2
    exit 1
fi

# Unsafe stays confined. Outside test code, `unsafe` appears in three
# places only: xbs's native-order reader copy and its byte view of packed
# arrays (crates/xbs/src/reader.rs, prim.rs), the epoll FFI
# (crates/transport/src/reactor/poll.rs), and the counting allocator
# (crates/bench/src/alloc_counter.rs); bxsa, soap, xmltext and bxdm also
# say #![forbid(unsafe_code)]. Comments are skipped. The shims stand in
# for external crates and are outside the gate; test modules and tests/
# directories are exempt.
unsafe_hits=$(git ls-files 'crates/*.rs' 'src/*.rs' 'examples/*.rs' | grep -vE '(^|/)tests/' \
    | while read -r f; do
    case "$f" in
        crates/xbs/src/reader.rs | crates/xbs/src/prim.rs \
        | crates/transport/src/reactor/poll.rs | crates/bench/src/alloc_counter.rs) continue ;;
    esac
    awk '/#\[cfg\(test\)\]/{exit} {sub(/\/\/.*/, ""); print}' "$f" | grep -nwE 'unsafe' \
        | sed "s|^|$f:|" || true
done)
if [ -n "$unsafe_hits" ]; then
    echo "$unsafe_hits" >&2
    echo "unsafe: only xbs's reader copy and byte view, the epoll FFI and the counting allocator may use unsafe" >&2
    exit 1
fi
for c in bxsa soap xmltext bxdm; do
    if ! grep -qx '#!\[forbid(unsafe_code)\]' "crates/$c/src/lib.rs"; then
        echo "unsafe: crates/$c/src/lib.rs must keep #![forbid(unsafe_code)]" >&2
        exit 1
    fi
done

# Streaming job (PR 9): the end-to-end streamed lane stays live and
# constant-memory. The e2e tests drive a >=8x-window payload
# client -> transcoding intermediary -> server and back; the chunked
# edge tests feed the server degenerate framing over raw sockets; the
# alloc gate (rides the alloc-counter step above; STREAM_GATE_FULL=1
# scales it to a simulated gigabyte) pins a warm streamed exchange's
# client-side allocations independent of payload size; and the bench
# must keep emitting both lanes' rows for BENCH_PR9.json.
cargo test -q --test streaming_live
cargo test -q --test chunked_edges
stream_bench_out=$(cargo bench -p bench --bench stream_pipeline 2>&1 | grep '^BENCH ') || {
    echo "stream_pipeline bench produced no BENCH lines" >&2
    exit 1
}
for row in 'stream_pipeline/buffered/1MB' 'stream_pipeline/streamed/1MB' \
           'stream_pipeline/streamed/256MB'; do
    if ! grep -q "^BENCH {\"id\":\"$row\"" <<<"$stream_bench_out"; then
        echo "stream_pipeline bench is missing row $row" >&2
        exit 1
    fi
done

# Streaming means streaming: no serving-path code may slurp a body with
# read_to_end — bodies arrive through the sized/chunked readers with
# their frame and part caps. Test modules are exempt (faulty.rs's
# fixtures read sockets to EOF on purpose).
for f in crates/transport/src/http/*.rs crates/transport/src/reactor/*.rs \
         crates/soap/src/*.rs; do
    if awk '/#\[cfg\(test\)\]/{exit} {print}' "$f" | grep -n 'read_to_end'; then
        echo "streaming: $f buffers a whole body with read_to_end" >&2
        exit 1
    fi
done

# Benchmark smoke: the loopback benchmark (BENCHMARK.json, perfbench/)
# must build from this checkout and answer every call correctly on a
# short bulk_upload run. Its last line of output is the JSON summary.
bench_smoke=$(python3 perfbench/run.py --workload bulk_upload --seed 1 --seconds 2 --trace 0) || {
    echo "perfbench: bulk_upload smoke run failed" >&2
    exit 1
}
if ! tail -n 1 <<<"$bench_smoke" \
    | python3 -c 'import json, sys; sys.exit(json.load(sys.stdin)["correct"] is not True)'; then
    echo "perfbench: bulk_upload smoke run did not report \"correct\": true" >&2
    exit 1
fi

# The benchmark's traced build and the harness's own correctness tests:
# the traced binary (--trace 1, the per-layer split) is otherwise never
# compiled here.
cargo test --release --offline --manifest-path perfbench/Cargo.toml --features trace

cargo clippy --workspace --all-targets -- -D warnings

# The API is the product: rustdoc must build clean (broken intra-doc
# links and malformed HTML fail the gate).
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

# Adversarial-hardening job (PR 10): the fuzz workspace must build, every
# fuzz target must have a seed corpus (a target without one silently
# fuzzes from nothing), and a short smoke run over the checked-in corpora
# — which include every minimized crash reproducer — must come back
# crash-free. The smoke uses the stable-toolchain build (blind mutation);
# the coverage-guided nightly+sancov build is for longer local sessions,
# see fuzz/Cargo.toml. Differential regression tests ride the workspace
# test step above (fuzz_regressions, differential_oracles).
cargo build --release --manifest-path fuzz/Cargo.toml -q
for t in fuzz/fuzz_targets/*.rs; do
    name=$(basename "$t" .rs)
    if [ ! -d "fuzz/corpus/$name" ] || [ -z "$(ls -A "fuzz/corpus/$name")" ]; then
        echo "fuzz: target $name has no seed corpus in fuzz/corpus/$name" >&2
        exit 1
    fi
    if ! fuzz/target/release/"$name" -max_total_time=8 \
         -artifact_prefix="fuzz/artifacts/ci-$name-" "fuzz/corpus/$name" \
         > /tmp/fuzz-smoke-"$name".log 2>&1; then
        echo "fuzz: $name crashed during the CI smoke run:" >&2
        tail -20 /tmp/fuzz-smoke-"$name".log >&2
        exit 1
    fi
done
