#!/usr/bin/env bash
# The repository benchmark: builds offline in release mode, then runs.
#
#   benchmark/run.sh                  every workload, tracing off, each in its own child process
#   benchmark/run.sh --trace          the traced run of every workload (spans + layer probes)
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   one run (the driver's form)
#   benchmark/run.sh --quick | --selfcheck | --bless | --check-trace FILE
#
# See benchmark/README.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

# Nothing of the caller's environment may change what the program does:
# PHOTON_BENCH_FULL, PHOTON_ENGINE_THREADS, PHOTON_FAULTS,
# PHOTON_BENCH_CACHE, PHOTON_SPAN_RING and every other PHOTON_* go.
for v in $(compgen -v | grep '^PHOTON_' || true); do unset "$v"; done

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

export BENCH_DIR="$here"
export BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
export BENCH_GIT_COMMIT="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
exec "$CARGO_TARGET_DIR/release/photon-benchmark" "$@"
