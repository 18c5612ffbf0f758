#!/usr/bin/env sh
# Regenerates the committed benchmark snapshots:
#
#   BENCH_eval.json   — the eval_hot_path n-sweep (n = 8, 12, 16, 20 at
#                       p = 2): allocating / ctx_fresh / ctx_reused
#                       pipelines and gradient acquisition strategies.
#   BENCH_shard.json  — the shard_scaling sweep (1/2/4 shards over the
#                       loopback and subprocess transports): the streaming
#                       coordinator's corpus throughput, and the gap
#                       between in-process and spawned workers.
#   BENCH_density.json — the density_kernels benches: one gate and one
#                       depolarizing channel at n = 4, 6, 8, the p = 2 QAOA
#                       energy on the state-vector and density-matrix
#                       paths, and noisy_run/n6_m8_p2, one noisy objective
#                       call on the shape of the noisy_n6 perfbench workload.
#
# The snapshots are a machine-readable record from one reference machine —
# a point of comparison, not a CI gate (absolute times vary across hosts;
# the interesting signal is the ratios within each file).
#
# Usage: scripts/bench_snapshot.sh [eval.json] [shard.json] [density.json]
#        (defaults: BENCH_eval.json BENCH_shard.json BENCH_density.json)
set -eu

eval_out="${1:-BENCH_eval.json}"
shard_out="${2:-BENCH_shard.json}"
density_out="${3:-BENCH_density.json}"
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

# Mini-criterion lines look like:
#   bench: expectation/allocating/8                           12.34 µs/iter
# Convert each to {"bench": "...", "nanos_per_iter": ...}.
snapshot() {
    bench_name="$1"
    out="$2"
    cargo bench -p bench --bench "$bench_name" | tee "$raw" >&2
    awk -v benchmark="$bench_name" '
BEGIN { print "{"; printf "  \"benchmark\": \"%s\",\n  \"unit\": \"ns/iter\",\n  \"results\": [\n", benchmark; n = 0 }
$1 == "bench:" && $NF ~ /\/iter$/ {
    label = $2
    value = $(NF-1); unit = $NF
    # value/unit arrive either as "12.34 µs/iter" (two fields) or
    # "123 ns/iter"; normalize to nanoseconds.
    sub(/\/iter$/, "", unit)
    scale = 1
    if (unit == "ns") scale = 1
    else if (unit == "µs" || unit == "us") scale = 1e3
    else if (unit == "ms") scale = 1e6
    else if (unit == "s") scale = 1e9
    if (n > 0) printf ",\n"
    printf "    {\"bench\": \"%s\", \"nanos_per_iter\": %.1f}", label, value * scale
    n++
}
END { printf "\n  ]\n}\n" }
' "$raw" > "$out"
    echo "wrote $out" >&2
}

snapshot eval_hot_path "$eval_out"
snapshot shard_scaling "$shard_out"
snapshot density_kernels "$density_out"
