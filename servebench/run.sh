#!/usr/bin/env bash
# Builds `mmt` and the benchmark from source, then runs the benchmark.
# Every argument passes through to the benchmark binary, e.g.
#   bash servebench/run.sh --workload durable_hr --seed 1 --seconds 10 --trace 0
# Run it from the repository root. Generated inputs and stores go to
# `.bench_work/` there; build output goes to $CARGO_TARGET_DIR
# (default `.bench_build/`).
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
target="${CARGO_TARGET_DIR:-$root/.bench_build}"
case "$target" in
/*) ;;
*) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p mmt-cli --bin mmt >&2
cargo build --release --offline --quiet --manifest-path "$root/servebench/Cargo.toml" >&2
# Client and server share the last CPU this process may use. The closed
# loop keeps at most one of them busy; across two CPUs, wake-ups added
# 15-25 us to every microsecond-scale answer and widened its spread.
pin=()
if command -v taskset >/dev/null; then
	cpus=$(taskset -pc $$ | sed 's/.*: //')
	pin=(taskset -c "${cpus##*[,-]}")
fi
exec ${pin[@]+"${pin[@]}"} "$target/release/servebench" --mmt "$target/release/mmt" --work "$root/.bench_work" "$@"
