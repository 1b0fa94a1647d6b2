#!/usr/bin/env bash
# The tier-1 gate: hermetic build, full test suite, and the seal-analyze
# static-analysis passes (source lint + semantic model/plan/heap checks +
# the deep call-graph passes: encryption-boundary taint, panic-freedom
# reachability, unsafe-audit).
#
# Usage:
#   scripts/check.sh
#
# Everything here runs offline — the workspace has no external
# dependencies by design.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test"
cargo test -q --workspace

# The benchmark harness is a workspace of its own (perfbench/Cargo.toml)
# built against the serve/net/nn APIs by path, so a public-API change
# that breaks it must fail here, not only when the benchmark next runs.
echo "==> perfbench tests"
cargo test --release --offline --manifest-path perfbench/Cargo.toml

# All three analysis layers over the full workspace. The deep passes run
# against the committed baseline (analyze_baseline.txt — empty: the tree
# carries zero known findings) with --fail-on=new, so any regression
# fails the gate while the per-pass wall times and the findings land in
# results/analyze_report.json.
echo "==> seal-analyze --workspace"
mkdir -p results
cargo run --release -q -p seal-analyze -- --workspace \
    --fail-on=new --timing --report results/analyze_report.json

# Determinism suite: the parallel kernels must produce bitwise-identical
# results for any thread count (in-process pools and SEAL_THREADS
# subprocesses) and 0 ULP vs the naive reference loops.
echo "==> determinism suite (SEAL_THREADS in {1,2,7})"
cargo test --release -q -p seal-bench --test determinism

# Inference-plan perf trajectory: naive vs blocked vs compiled-plan
# timings on the reduced VGG-16 into results/BENCH_infer.json. The
# target is planned >= 1.3x blocked at batch 32; timings are recorded,
# not gated, so a loaded CI host cannot flake the build.
echo "==> bench_infer (results/BENCH_infer.json)"
scripts/bench_infer.sh

# Quantized-inference trajectory: int8 GEMM vs f32 blocked GEMM per
# kernel mode plus the int8-vs-f32 lane economics, into
# results/BENCH_quant.json. Unlike bench_infer this one *is* gated:
# best int8 GEMM >= 2x f32 blocked, every encrypting lane < 1/3 of its
# f32 encrypted bytes. The ratio is machine-relative (same host, same
# core count on both sides), so it cannot flake on a loaded CI box the
# way an absolute GFLOP/s floor would.
echo "==> bench_quant (results/BENCH_quant.json)"
scripts/bench_quant.sh

# Counter-locality trajectory: the batched read-only weight walk vs the
# per-page LRU probe, and the classic-vs-tuned geometry lane comparison,
# into results/BENCH_counter.json. Gated: the tuned Counter lane must
# hit > 0.5 and land strictly below the pre-overhaul 4.2x slowdown.
echo "==> bench_counter (results/BENCH_counter.json)"
scripts/bench_counter.sh

# Serving smoke run: ~100 closed-loop requests against the reduced
# VGG-16; the binary exits non-zero if latency percentiles are
# disordered, throughput is zero, or the encryption-scheme throughput
# ordering (Baseline > SEAL-C > Counter) breaks.
echo "==> seal-serve --smoke"
cargo run --release -q -p seal-serve -- --smoke

# Counter-locality gate on the smoke artifact: every encrypting lane
# must show a live counter cache (hit rate >= 0.5, never the 0.000000
# the pre-overhaul geometry thrashed to) and the Counter lane must stay
# strictly below the recorded 4.238x pre-overhaul slowdown baseline.
awk '
/"scheme":/ && !/"Baseline"/ {
    hit = -1; slow = -1; scheme = ""
    for (i = 1; i <= NF; i++) {
        if ($i ~ /"scheme":/) { scheme = $(i + 1); gsub(/[",]/, "", scheme) }
        if ($i ~ /"counter_hit_rate":/) { v = $(i + 1); gsub(/[^0-9.]/, "", v); hit = v + 0 }
        if ($i ~ /"slowdown_vs_baseline":/) { v = $(i + 1); gsub(/[^0-9.]/, "", v); slow = v + 0 }
    }
    if (hit >= 0 && hit < 0.5) {
        printf "check: %s counter_hit_rate %.4f < 0.5\n", scheme, hit
        bad = 1
    }
    if (scheme == "Counter" && slow >= 4.238) {
        printf "check: Counter slowdown %.3f regressed above the 4.238 baseline\n", slow
        bad = 1
    }
}
END {
    if (!bad) print "check: smoke counter lanes warm and below the 4.238x baseline  ok"
    exit bad
}
' results/serve_smoke.json

# Chaos suite: the seeded fault-injection tests (MAC-detected tampers,
# counter-cache corruption, worker panics) plus the end-to-end chaos
# smoke — two identically-seeded runs must stay live (every request
# completes or is shed with a typed error), detect every tamper, and
# report identical fault/recovery counts into results/chaos_smoke.json.
echo "==> seal-faults chaos tests"
cargo test --release -q -p seal-faults
cargo test --release -q -p seal-serve --test chaos_smoke
echo "==> seal-serve --chaos"
cargo run --release -q -p seal-serve -- --chaos

# Network serving smoke: the seal-net epoll front-end serves 8
# skew-weighted tenants (per-tenant AES keys, counter windows and
# compiled plans; deficit-round-robin admission) over real loopback TCP
# under a deterministic open-loop Pareto load of 1e5 distinct users,
# then replays the seeded byzantine-client fault schedule (malformed
# frames, truncations, slow-loris holds, disconnects, slow readers that
# trip write backpressure, pipeline over-runs past the in-flight cap,
# connect storms) twice, then exercises graceful drain twice
# (GOAWAY-per-client, typed rejects for everything accepted after the
# drain begins — the zero-silent-drops contract). Fails on a Jain
# fairness index < 0.9, any typed fault-ledger mismatch, a dropped or
# unanswered request across the drain, or cross-run nondeterminism; the
# artifact lands in results/serve_net.json.
echo "==> seal-serve --net-smoke"
cargo run --release -q -p seal-serve -- --net-smoke

# Clippy is optional tooling: run it when the component is installed,
# skip silently in minimal toolchains.
if cargo clippy --version >/dev/null 2>&1; then
    echo "==> cargo clippy"
    cargo clippy --workspace --all-targets -- -D warnings
else
    echo "==> cargo clippy (not installed, skipped)"
fi

echo
echo "check.sh: all gates passed."
