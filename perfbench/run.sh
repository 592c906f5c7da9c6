#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload.
#
#   bash perfbench/run.sh --offered-rate-qps 20 \
#       --workload interactive-ms-20k --seed 1 --seconds 30 --trace 0
#
# `--trace 0` runs the untraced end-to-end binary; `--trace 1` runs the
# binary with the counting allocator, which replays the workload's queries
# layer by layer.  Build output goes to stderr; the last line of stdout is
# the result object.
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin_dir="${CARGO_TARGET_DIR:-$here/target}/release"

bin="perfbench"
prev=""
for arg in "$@"; do
    if [[ "$prev" == "--trace" && "$arg" == "1" ]]; then
        bin="perfbench-trace"
    fi
    prev="$arg"
done
exec "$bin_dir/$bin" "$@"
