#!/usr/bin/env bash
# The full gate a change must pass before merging: the tier-1 commands
# (which build and test the whole workspace), then the gates below on
# the binaries that build produced. Every gate runs unconditionally and
# compares only deterministic quantities — simulated cycles, instruction
# and warp counts, accounting invariants. Host time is measured and
# gated by the repo benchmark alone (benchmark/README.md).
set -euo pipefail
cd "$(dirname "$0")/.."

# Quarantine hygiene: a clean CI run must not leave new .corrupt
# corpses behind in results/ (pre-existing ones are tolerated but never
# allowed to grow — persist::quarantine rotates, keeping at most 2 per
# basename). Snapshot now, compare at the end.
corpses_snapshot() {
  find results -maxdepth 2 -name '*.corrupt*' 2>/dev/null | sort || true
}
corpses_before="$(corpses_snapshot)"

echo "==> one build configuration, one wall-clock ruler: nothing deleted may reappear"
# (the bracket expressions keep these lines from matching themselves)
if grep -rnE 'feature = "(telemetry|enabled)"|--features[ ]telemetry|tracing[_]compiled' \
    crates scripts README.md DESIGN.md; then
  echo "    event tracing is gated at run time (Telemetry::enable_tracing), not by a cargo feature"
  exit 1
fi
if grep -rnE 'bench[_]hot|BENCH[_]hot|hot[p]ath|PHOTON[_]SKIP_' \
    crates scripts README.md DESIGN.md .claude; then
  echo "    host time is benchmark/'s job, and no CI gate has a skip hatch"
  exit 1
fi

# One store, one record codec, one span collector: the sharded store,
# the render-to-measure helper and the per-thread span rings are gone,
# and a journal line's crc is checked in persist alone.
if grep -rnE 'Sharded[S]tore|DEFAULT[_]SHARDS|measurement[_]bytes|Thread[R]ing' \
    crates scripts README.md DESIGN.md .claude \
    || grep -rn 'parse_framed[_]line' crates --include='*.rs' \
      | grep -v '^crates/bench/src/persist.rs:' \
      | grep -v '^crates/bench/tests/persist.rs:'; then
  echo "    the store is one LruStore, an insert is charged without rendering, and"
  echo "    stored checksums are compared with content in crates/bench/src/persist.rs only"
  exit 1
fi

echo "==> non-test lines per crate (scripts/loc.sh; every PR reports before -> after)"
scripts/loc.sh

echo "==> cargo build --release"
cargo build --release

# The whole workspace (default-members), including photon-bench's
# executor-determinism (executor, refcache) and fault-injection (chaos,
# torn-write persist) integration suites.
echo "==> cargo test"
cargo test -q

echo "==> the frozen benchmark package still builds against this tree"
cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "==> pinned simulated counts: hold-out seed of the benchmark's simulation workloads"
# A speed-only change must leave every simulated count where
# benchmark/expected.json pins it. One-second runs: host time is not
# looked at, only the verdicts. Writes under the git-ignored
# benchmark/out/ alone.
for w in mm_compute spmv_irregular fir_stream resnet50_kernels mm_det2; do
  out="$(benchmark/run.sh --workload "$w" --seed 2 --seconds 1 --trace 0)"
  if ! grep -qx 'sim_stats: same' <<<"$out" \
      || ! tail -n 1 <<<"$out" | grep -q '"failed":0'; then
    echo "    $w (seed 2) moved a pinned count or failed an operation:"
    echo "$out"; exit 1
  fi
  echo "    $w: sim_stats same, failed 0"
done

echo "==> clippy"
scripts/lint.sh

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> smoke benchmark -> results/BENCH_smoke.json (cold cache, 2 workers)"
rm -rf results/cache
cargo run -q --release -p photon-bench --bin report -- smoke --jobs 2
cargo run -q --release -p photon-bench --bin report -- check

echo "==> cycle-accounting gate (stall-sum invariant + per-BB attribution)"
cargo run -q --release -p photon-bench --bin profile -- check

echo "==> warm-cache rerun must perform zero full-detailed simulations"
cargo run -q --release -p photon-bench --bin report -- smoke --jobs 2 --require-cached

echo "==> engine-parallel gate"
# Bit-identity across thread counts is the golden-cycles suite's job: it
# pins the deterministic engine to 1, 2 and 4 threads itself and ran
# under `cargo test` above.
par_tmp="$(mktemp -d)"
cp results/BENCH_smoke.json "$par_tmp/BENCH_smoke_serial.json"

# Chaos: epoch-barrier stalls injected into a deterministic 4-thread
# smoke run must be absorbed (slow workers cost wall time, never
# results); the accounting invariants must survive.
cargo run -q --release -p photon-bench --bin report -- smoke --jobs 2 \
  --no-journal --engine deterministic --engine-threads 4 \
  --faults "engine.epoch.stall:0.001:7"
cargo run -q --release -p photon-bench --bin profile -- check

# Restore the serial smoke report for the gates below.
cp "$par_tmp/BENCH_smoke_serial.json" results/BENCH_smoke.json
rm -rf "$par_tmp"

echo "==> mem-fidelity gate"
# Detailed memory model: rerun the smoke grid with MSHRs, banked-L2
# NoC queues, and DRAM bank timing switched on. The run reports as
# workload `smoke_detailed` (results/BENCH_smoke_detailed.json), so the
# legacy report stays where it is. Detailed mode is slower than legacy
# by design (real contention costs cycles), so legacy->detailed is not
# held to a cycle bound; the diff is printed for its memory signature —
# the stall-share and queue-delay movement that reviews a fidelity
# change (see DESIGN.md, "Memory model").
cargo run -q --release -p photon-bench --bin report -- smoke --jobs 2 \
  --no-journal --mem-fidelity detailed
cargo run -q --release -p photon-bench --bin profile -- diff \
  results/BENCH_smoke.json results/BENCH_smoke_detailed.json 0.95 \
  || echo "    (legacy->detailed cycle drift is expected; the tables above are the review artifact)"

# The hard checks: the detailed model is pinned — `report check` holds
# the run to results/baselines/BENCH_smoke_detailed.json field for
# field, so a speed-only change to gpu-mem cannot move a detailed cycle
# unseen; accounting must stay balanced under the extra queue-delay
# charges; and a cold rerun must reproduce the detailed run
# bit-for-bit — the detailed path is deterministic, not merely
# plausible. 1% is the tightest bound profile diff accepts.
cargo run -q --release -p photon-bench --bin report -- check
cargo run -q --release -p photon-bench --bin profile -- check results/BENCH_smoke_detailed.json
mem_tmp="$(mktemp -d)"
cp results/BENCH_smoke_detailed.json "$mem_tmp/BENCH_smoke_detailed.json"
cargo run -q --release -p photon-bench --bin report -- smoke --jobs 2 \
  --no-journal --no-cache --mem-fidelity detailed
cargo run -q --release -p photon-bench --bin profile -- diff \
  "$mem_tmp/BENCH_smoke_detailed.json" results/BENCH_smoke_detailed.json 0.01
rm -rf "$mem_tmp"

echo "==> chaos gate: smoke under a fixed fault seed"
# Every injected failure must be absorbed by a guardrail: panics are
# retried, corrupt cache reads are quarantined and recomputed, torn
# journal lines are skipped on load. The seed is fixed (decisions are
# a pure hash of site/seed/key), so this either always passes or
# always fails for a given tree. The subsequent check proves the
# report written under chaos is complete and checksum-clean.
cargo run -q --release -p photon-bench --bin report -- smoke --jobs 2 \
  --faults "exec.panic:0.3:1207,refcache.read.corrupt:1.0:7,journal.torn:1.0:7"
cargo run -q --release -p photon-bench --bin report -- check
# refcache.read.corrupt quarantines a real results/cache entry — that
# corpse is the guardrail firing, not a hygiene violation. Re-baseline
# the quarantine snapshot so the hygiene gate below still covers
# everything after this deliberate sabotage (the serve gate in
# particular must stay corpse-free).
corpses_before="$(corpses_snapshot)"

echo "==> photon-serve gate: loadgen over a live server"
serve_tmp="$(mktemp -d)"
serve_log="$serve_tmp/serve.log"
serve_wait_up() {
  for _ in $(seq 1 100); do
    grep -q "listening on" "$serve_log" && break
    sleep 0.1
  done
  addr="$(grep -o '127\.0\.0\.1:[0-9]*' "$serve_log" | head -1)"
  if [[ -z "$addr" ]]; then
    echo "    photon-serve never came up:"; cat "$serve_log"; exit 1
  fi
}
serve_stop_clean() {
  kill -TERM "$serve_pid"
  wait "$serve_pid"
  if ! grep -q "clean exit" "$serve_log"; then
    echo "    photon-serve did not drain cleanly:"; cat "$serve_log"; exit 1
  fi
}

# Duplicate-heavy closed-loop drive: 4 clients x 3 jobs cycling 3
# specs, so identical submissions constantly collide. --check asserts
# zero failed fetches, a positive coalesce rate, and a warm p50 at
# least 10x below cold. SIGTERM afterwards must drain and exit clean.
./target/release/photon-serve --port 0 --workers 2 --no-cache \
  --pending "$serve_tmp/pending.jsonl" \
  --flightrec "$serve_tmp/flightrec" >"$serve_log" 2>&1 &
serve_pid=$!
serve_wait_up
timeout 300 ./target/release/photon-loadgen --addr "$addr" \
  --clients 4 --jobs-per-client 3 --check
# Live-view smoke: one non-interactive photon-top frame, and a
# `metrics` scrape that must round-trip through the exposition-format
# parser (photon-top --scrape exits nonzero on a parse failure).
./target/release/photon-top --addr "$addr" --once | grep -q "photon-top" \
  || { echo "    photon-top --once rendered no frame"; exit 1; }
./target/release/photon-top --addr "$addr" --scrape | grep -q "photon_serve_submitted" \
  || { echo "    metrics scrape did not round-trip"; exit 1; }
serve_stop_clean

# Fault-seeded variant: with panics injected into simulations, every
# submission must still get a terminal answer (loadgen hangs on a
# dropped job, which the timeout turns into a failure) and the server
# must still drain cleanly.
./target/release/photon-serve --port 0 --workers 2 --no-cache \
  --pending "$serve_tmp/pending_faults.jsonl" \
  --flightrec "$serve_tmp/flightrec_faults" \
  --faults "exec.panic:0.3:1207" >"$serve_log" 2>&1 &
serve_pid=$!
serve_wait_up
timeout 300 ./target/release/photon-loadgen --addr "$addr" \
  --clients 4 --jobs-per-client 3 --out BENCH_serve_faults
# Prove the run actually exercised the fault path: stats must report
# at least one injected exec.panic (absorbed by retries — loadgen
# above already proved no job was dropped).
serve_port="${addr##*:}"
exec 3<>"/dev/tcp/127.0.0.1/$serve_port"
echo '{"op":"stats"}' >&3
IFS= read -r serve_stats <&3
exec 3<&-
if ! grep -q '"exec.panic"' <<<"$serve_stats"; then
  echo "    fault-seeded serve run injected no panics"; exit 1
fi
serve_stop_clean

# Flight recorder: the injected panics must have cut at least one
# dump; every dump must load (checksum-verified by `report
# flightrec`), and at least one must name the injected fault site.
dumps=("$serve_tmp"/flightrec_faults/*.json)
if [[ ! -e "${dumps[0]}" ]]; then
  echo "    fault-seeded serve run produced no flight-recorder dump"; exit 1
fi
flight_out=""
for dump in "${dumps[@]}"; do
  flight_out+="$(./target/release/report flightrec "$dump")"$'\n'
done
if ! grep -q "exec.panic" <<<"$flight_out"; then
  echo "    no flight record names the injected fault site:"
  echo "$flight_out"; exit 1
fi
rm -rf "$serve_tmp"

echo "==> quarantine hygiene: no new .corrupt corpses in results/"
corpses_after="$(corpses_snapshot)"
if [[ "$corpses_after" != "$corpses_before" ]]; then
  echo "    quarantine corpses accumulated during this run:"
  diff <(echo "$corpses_before") <(echo "$corpses_after") || true
  exit 1
fi

echo "==> ci OK"
