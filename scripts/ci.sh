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
# corpses behind in results/ (pre-existing ones are tolerated, and may
# go when the smoke gate clears results/cache — persist::quarantine
# rotates, keeping at most 2 per basename). Snapshot now, compare just
# before the chaos gate, which quarantines a real results/cache entry
# on purpose and so runs last.
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
# and a journal line's crc is checked in the journal alone.
if grep -rnE 'Sharded[S]tore|DEFAULT[_]SHARDS|measurement[_]bytes|Thread[R]ing' \
    crates scripts README.md DESIGN.md .claude \
    || grep -rn 'decode[_]line' crates --include='*.rs' \
      | grep -v '^crates/bench/src/journal.rs:' \
      | grep -v '^crates/bench/tests/persist.rs:'; then
  echo "    the store is one LruStore, an insert is charged without rendering, and a"
  echo "    stored checksum is compared with content in crates/bench/src/persist.rs (files)"
  echo "    or crates/bench/src/journal.rs (journal lines) only"
  exit 1
fi

# One crc-line journal: the run journal and photon-serve's pending jobs
# are both photon_bench::journal::Journal, and the server's registry
# holds a fixed set of names (no per-tenant counters, one counter per
# cancel).
if grep -rnE 'load[_]lines|frame[_]line|parse_framed[_]line|tenant[_]counter|serve[.]tenant|exec[.]cancelled' \
    crates scripts README.md DESIGN.md .claude; then
  echo "    journal lines are written by Journal::record and read by journal::load; a"
  echo "    tenant is a label in stats, and a cancel counts in serve.cancelled alone"
  exit 1
fi

# The reference cache is its directory: no in-memory tier, no
# single-flight, no counters for either. The one LruStore is
# photon-serve's store of finished jobs.
if grep -rnE 'join[_]or_lead|get[_]or_compute_full|DEFAULT[_]MEM_BUDGET|refcache[.]mem_evicted|refcache[.]coalesced' \
    crates scripts README.md DESIGN.md .claude; then
  echo "    RefCache reads and writes results/cache/ and holds nothing in memory;"
  echo "    LruStore lives in crates/serve/src/store.rs"
  exit 1
fi

# A job is in one place (live map or result store), one codec spells a
# job id, Chrome-trace JSON is the only trace file format, and a report
# row is the run's Measurement.
if grep -rnE 'MAX[_]TERMINAL_JOBS|note[_]terminal|fn mint[_]trace|fn parse[_]job_id|fn json[l]\b|Method[R]un|fn method[_]run' \
    crates scripts README.md DESIGN.md .claude; then
  echo "    finished jobs live in the scheduler's byte-budgeted store, job ids go through"
  echo "    gpu_telemetry::span::{job_hex, parse_job_hex}, the JSONL exporter is gone, and"
  echo "    RunReport rows are photon_bench::harness::Measurement"
  exit 1
fi

# A job's trail is one flat list of its own run's spans, held once with
# one bound (the collector's), and faults are armed by --faults alone.
if grep -rnE 'Span[T]ree|Span[N]ode|build[_]tree|MAX[_]SPANS|init[_]from_env|PHOTON[_]FAULTS' \
    crates scripts README.md DESIGN.md .claude; then
  echo "    serve's trace/stats and flight records read gpu_telemetry::span::job_records;"
  echo "    faults::install (--faults) is the only way to arm fault injection"
  exit 1
fi

# photon-serve has one view of its state, `stats`: no Prometheus
# rendering of the registry, no gauges written just before a read.
if grep -rnE 'prometheus[_]text|prometheus[_]name|metrics[_]text|refresh[_]gauges|Request::[M]etrics|metrics[.]prom' \
    crates scripts README.md DESIGN.md .claude; then
  echo "    the server's registry is read through the stats op alone; lane depths and"
  echo "    the running count are fields of stats, not gauges"
  exit 1
fi

# photon-serve has one view of a job, `trace`: no `status` op, and
# `wait` answers once instead of streaming progress events.
if grep -rnE 'Request::[S]tatus|Status[V]iew|progress[_]object|"event":"[p]rogress"' \
    crates scripts README.md DESIGN.md .claude; then
  echo "    a job's state and sim.* progress are read through the trace op alone;"
  echo "    wait writes one status line"
  exit 1
fi

# One definition of the same simulated result: Measurement::differences,
# applied by the one `report` binary. The profile binary, its tolerance
# knob and the hand-picked field lists are gone.
if grep -rnE 'bin[ ]profile|diff[_]reports|DIFF[_]THRESHOLD|run[_]counts|deterministic[_]view' \
    crates scripts README.md DESIGN.md .claude; then
  echo "    two reports are compared by \`report diff\` / \`report check\` alone"
  exit 1
fi

# Basic blocks have one decomposition: the paper's. The s_waitcnt
# split of §3 Obs 3 is prose in DESIGN.md, not a switch.
if grep -rnE 'Bb[O]ptions|from_program[_]with|split[_]at_waitcnt' \
    crates scripts README.md DESIGN.md .claude; then
  echo "    BasicBlockMap::from_program is the only decomposition"
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

# The differential oracles of the interpreter and the memory hierarchy
# (per-lane loads and stores against the Unit / Uniform / Lanes paths,
# the linear-scan MSHR and tag arrays) again in the release build the
# benchmark times: the debug run above checks arithmetic overflow, this
# one checks the code the optimiser vectorised.
echo "==> cargo test --release (gpu-mem, gpu-sim)"
cargo test -q --release -p gpu-mem -p gpu-sim

echo "==> the frozen benchmark package still builds against this tree"
cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "==> pinned simulated counts: hold-out seed of the benchmark's simulation workloads, claim seed where merges can move"
# A speed-only change must leave every simulated count where
# benchmark/expected.json pins it. One-second runs: host time is not
# looked at, only the verdicts. Writes under the git-ignored
# benchmark/out/ alone. Seed 2 of every simulation workload, plus seed
# 1 (the seed gains are claimed on) of the two with the most lines
# evicted while their fill is in flight, whose MSHR-merge counts hang on
# the legacy tag arrays' ghosts.
#
# One count may differ until expected.json is re-blessed: busy-port
# retries stopped being calendar events, so `sim.events` fell to one
# per instruction (a Full run has no predicted warps). Accepted only as
# the single diff line `sim.events: expected E, got G` with G < E and G
# equal to the run's own `sim.insts_detailed`; resnet50_kernels never
# retried, so it must still print `sim_stats: same`.
counts_hold() {
  local w="$1" out="$2" diff insts
  grep -qx 'sim_stats: same' <<<"$out" && return 0
  [[ "$w" != resnet50_kernels ]] || return 1
  diff="$(sed -n '/^sim_stats: DIFFERENT/,/^(wrote /p' <<<"$out" | sed '1d;$d')"
  [[ "$diff" =~ ^\ \ sim\.events:\ expected\ ([0-9]+),\ got\ ([0-9]+)$ ]] || return 1
  insts="$(grep -o '"sim.insts_detailed": [0-9]*' "benchmark/out/result_$w.json" \
    | tail -n 1 | grep -o '[0-9]*$')"
  ((BASH_REMATCH[2] < BASH_REMATCH[1])) && [[ "${BASH_REMATCH[2]}" == "$insts" ]]
}
for run in mm_compute:2 spmv_irregular:2 fir_stream:2 resnet50_kernels:2 mm_det2:2 \
    spmv_irregular:1 fir_stream:1; do
  w="${run%:*}" seed="${run#*:}"
  out="$(benchmark/run.sh --workload "$w" --seed "$seed" --seconds 1 --trace 0)"
  if ! counts_hold "$w" "$out" \
      || ! tail -n 1 <<<"$out" | grep -q '"failed":0'; then
    echo "    $w (seed $seed) moved a pinned count or failed an operation:"
    echo "$out"; exit 1
  fi
  echo "    $w (seed $seed): $(grep -x 'sim_stats: same' <<<"$out" || echo 'sim.events = sim.insts_detailed'), failed 0"
done

echo "==> clippy"
scripts/lint.sh

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> smoke benchmark -> results/BENCH_smoke.json (cold cache, 2 workers)"
# `report check` holds every results/BENCH_*.json to the accounting
# invariants (stall classes sum exactly to resident warp-cycles, per-BB
# attribution present) and to its committed baseline, every field but
# wall time; `report diff A B` does the same for a pair of reports.
rm -rf results/cache
cargo run -q --release -p photon-bench --bin report -- smoke --jobs 2
cargo run -q --release -p photon-bench --bin report -- check

echo "==> warm-cache rerun must perform zero full-detailed simulations"
cargo run -q --release -p photon-bench --bin report -- smoke --jobs 2 --require-cached

echo "==> engine-parallel gate"
# Bit-identity across thread counts is the test suites' job, and ran
# under `cargo test` above: the golden-cycles suite pins the
# deterministic engine to 1, 2 and 4 threads, and
# tests/engine_thread_invariance.rs plus gpu-sim's epoch tests sweep 1,
# 2, 3, 5 and 64 threads (uneven chunks) on 16 CUs with a sampling
# controller.
par_tmp="$(mktemp -d)"
cp results/BENCH_smoke.json "$par_tmp/BENCH_smoke_serial.json"

# Chaos: run-phase stalls injected into a deterministic 4-thread smoke
# run (keyed by epoch and shard chunk, so mostly on pool threads the
# coordinator then waits for) must be absorbed: slow workers cost wall
# time, never results. The same smoke recomputed unstalled on one
# thread must be the same simulated result, run for run. Not the serial
# baseline: the deterministic engine differs from serial by the
# documented cross-CU tie gap, so `report check` would fail here.
cargo run -q --release -p photon-bench --bin report -- smoke --jobs 2 \
  --no-journal --engine deterministic --engine-threads 4 \
  --faults "engine.epoch.stall:0.001:7"
cp results/BENCH_smoke.json "$par_tmp/BENCH_smoke_det4_stalled.json"
cargo run -q --release -p photon-bench --bin report -- smoke --jobs 2 \
  --no-journal --no-cache --engine deterministic --engine-threads 1
cargo run -q --release -p photon-bench --bin report -- diff \
  "$par_tmp/BENCH_smoke_det4_stalled.json" results/BENCH_smoke.json

# Restore the serial smoke report for the gates below.
cp "$par_tmp/BENCH_smoke_serial.json" results/BENCH_smoke.json
rm -rf "$par_tmp"

echo "==> mem-fidelity gate"
# Detailed memory model: rerun the smoke grid with MSHRs, banked-L2
# NoC queues, and DRAM bank timing switched on. The run reports as
# workload `smoke_detailed` (results/BENCH_smoke_detailed.json), so the
# legacy report stays where it is. Detailed mode is slower than legacy
# by design (real contention costs cycles), so legacy->detailed is a
# different result; the diff is printed for its memory signature — the
# stall-share and queue-delay movement that reviews a fidelity change
# (see DESIGN.md, "Memory model").
cargo run -q --release -p photon-bench --bin report -- smoke --jobs 2 \
  --no-journal --mem-fidelity detailed
cargo run -q --release -p photon-bench --bin report -- diff \
  results/BENCH_smoke.json results/BENCH_smoke_detailed.json \
  || echo "    (legacy->detailed drift is expected; the tables above are the review artifact)"

# The hard checks: the detailed model is pinned — `report check` holds
# the run to results/baselines/BENCH_smoke_detailed.json, so a
# speed-only change to gpu-mem cannot move a detailed cycle or stall
# class unseen, and accounting must stay balanced under the extra
# queue-delay charges; and a cold rerun must be the same simulated
# result as the first run — the detailed path is deterministic, not
# merely plausible.
cargo run -q --release -p photon-bench --bin report -- check
mem_tmp="$(mktemp -d)"
cp results/BENCH_smoke_detailed.json "$mem_tmp/BENCH_smoke_detailed.json"
cargo run -q --release -p photon-bench --bin report -- smoke --jobs 2 \
  --no-journal --no-cache --mem-fidelity detailed
cargo run -q --release -p photon-bench --bin report -- diff \
  "$mem_tmp/BENCH_smoke_detailed.json" results/BENCH_smoke_detailed.json
rm -rf "$mem_tmp"

echo "==> quarantine hygiene: no new .corrupt corpses in results/"
corpses_new="$(comm -13 <(echo "$corpses_before") <(corpses_snapshot))"
if [[ -n "$corpses_new" ]]; then
  echo "    quarantine corpses accumulated during this run:"
  echo "$corpses_new"
  exit 1
fi

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

echo "==> ci OK"
