#!/usr/bin/env bash
# Scenario benchmark runner. Each harness writes its own result as JSON
# (`--json <path>`); this script only builds and runs it, checks the
# scenario's absolute gates on that JSON with `jq -e`, stamps provenance
# (commit and toolchain) and hands the candidate to scripts/bench_guard.py,
# which installs it over the checked-in BENCH_*.json unless a gated
# metric regresses or is missing.
#
#   scripts/bench.sh            # fig08_tcp + fig12_web + micro_zerocopy -> BENCH_net.json
#   scripts/bench.sh --scale    # examples/c1m, 1M connections -> BENCH_scale.json
#   scripts/bench.sh --cc       # examples/cc_race at seed 42 -> BENCH_cc.json
#   scripts/bench.sh --smp      # examples/smp -> BENCH_smp.json
#   scripts/bench.sh --virtio   # fig08_backends -> BENCH_virtio.json
#
# The gates are listed with each scenario below. micro_zerocopy asserts its
# copy budget itself (at most one software copy per delivered payload byte
# on the HTTP static-file path), so a regression there fails the run before
# any JSON is installed.

set -euo pipefail
cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
cand="$tmp/candidate.json"

# Runs the release build of example $1 with its result written to $cand.
example() {
    cargo build --release --offline --example "$1"
    "./target/release/examples/$1" --json "$cand"
}

# Runs bench target $1 with its result written to $tmp/$1.json (an
# absolute path: cargo runs benches from the crate directory).
bench() {
    echo "== bench: $1"
    cargo bench --offline -p mirage-bench --bench "$1" -- --json "$tmp/$1.json"
}

# Fails unless the jq expression $2 holds on the candidate; $1 names it.
# (jq orders null below every number: bounds check that a value exists.)
gate() {
    jq -e "$2" "$cand" > /dev/null || { echo "FAIL: gate '$1' does not hold" >&2; exit 1; }
    echo "   gate ok: $1"
}

case "${1:-}" in
--scale)
    out=BENCH_scale.json
    echo "== bench: c1m (one million connections; this takes a few minutes)"
    example c1m
    gate ">=1M connections held" '.connections_held >= 1000000'
    gate "quiet-tick ratio <= 2" '.quiet_tick_ns_per_virtual_ms.ratio | 0 <= . and . <= 2'
    ;;
--cc)
    out=BENCH_cc.json
    echo "== bench: cc race (NewReno vs CUBIC over the loss x delay grid)"
    MIRAGE_TEST_SEED=42 example cc_race
    gate "CUBIC >= NewReno on clean cells" '[.cells | to_entries[]
        | select(.key | startswith("loss0.0")) | .value
        | (.newreno.goodput_mbps | type == "number")
          and .cubic.goodput_mbps >= .newreno.goodput_mbps] | length > 0 and all'
    ;;
--smp)
    out=BENCH_smp.json
    echo "== bench: smp matrix ({1,16} flows x {1,2,4,8} vCPUs + idle split)"
    example smp
    gate ">=1.7x at 2 vCPUs" '.speedup_16flows.x2 >= 1.7'
    gate ">=3x at 4 vCPUs" '.speedup_16flows.x4 >= 3'
    gate "zero quiet polls on every core" '.idle_split
        | (.per_core | length) == .vcpus and all(.per_core[]; .quiet_polls == 0)'
    ;;
--virtio)
    out=BENCH_virtio.json
    echo "== bench: fig08 x backend (xen vs virtio over the iperf pairings)"
    bench fig08_backends
    mv "$tmp/fig08_backends.json" "$cand"
    gate "virtio within [0.5, 2]x of xen" '.throughput.xen as $xen
        | [.throughput.virtio | to_entries[] | .key as $p | .value | to_entries[]
           | .value / ([$xen[$p][.key], 1] | max)]
        | length > 0 and all(. >= 0.5 and . <= 2)'
    gate "equal smp bytes" '.smp | (.xen.bytes | type == "number") and .xen.bytes == .virtio.bytes'
    ;;
"")
    out=BENCH_net.json
    for b in fig08_tcp fig12_web micro_zerocopy; do
        bench "$b"
    done
    jq -s '{benches: {fig08_tcp: .[0], fig12_web: .[1], micro_zerocopy: .[2]}}' \
        "$tmp/fig08_tcp.json" "$tmp/fig12_web.json" "$tmp/micro_zerocopy.json" > "$cand"
    ;;
*)
    echo "usage: $0 [--scale|--cc|--smp|--virtio]" >&2
    exit 2
    ;;
esac

jq --arg commit "$(git rev-parse HEAD)" --arg rustc "$(rustc -V)" \
    '. + {provenance: {commit: $commit, rustc: $rustc}}' "$cand" > "$tmp/stamped.json"
python3 scripts/bench_guard.py "$out" "$tmp/stamped.json"
echo "== bench: done"
