#!/usr/bin/env bash
# Run N full sets of the benchmark back to back (every workload, gated and
# traced; set i uses seed i), keep their records under benchmark/results/, and
# print per workload and end-to-end metric the median, quartiles and spread
# against the bound. Exits non-zero if any spread exceeds its bound.
#
#   benchmark/repeat.sh N [SECONDS]
set -euo pipefail

n=${1:?usage: benchmark/repeat.sh N [SECONDS]}
cd "$(dirname "$0")/.."
secs=${2:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}

rev=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
if [ -n "$(git status --porcelain 2>/dev/null)" ]; then rev="$rev-dirty"; fi
export OBSERVATORY_REV=$rev

manifest=benchmark/observatory/Cargo.toml
cargo build --release --offline --quiet --manifest-path "$manifest"
bin=${CARGO_TARGET_DIR:-benchmark/observatory/target}/release/observatory
workloads=$("$bin" --list | python3 -c 'import json, sys; print(" ".join(w["name"] for w in json.load(sys.stdin)["workloads"]))')

out=benchmark/results/$(date -u +%Y%m%dT%H%M%SZ)-$rev
sets=()
for set in $(seq 1 "$n"); do
    dir=$out/set-$set
    sets+=("$dir")
    for w in $workloads; do
        for trace in 0 1; do
            echo "set $set: $w --trace $trace" >&2
            "$bin" --workload "$w" --seed "$set" --seconds "$secs" --trace "$trace" --out "$dir" >/dev/null ||
                echo "set $set: $w --trace $trace FAILED its checks" >&2
        done
        # The full trace is tens of megabytes; a thousand spans of the first
        # set show its shape.
        if [ "$set" -eq 1 ]; then
            head -n 1000 "$dir/trace-$w.jsonl" >"$dir/trace-$w.tmp" && mv "$dir/trace-$w.tmp" "$dir/trace-$w.jsonl"
        else
            rm -f "$dir/trace-$w.jsonl"
        fi
    done
done
python3 benchmark/summarize.py "${sets[@]}"
