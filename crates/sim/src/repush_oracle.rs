//! The busy-port re-push, kept as the oracle of the calendar's retry
//! lane.
//!
//! Before the lane, a `Ready` event that found its SIMD port taken was
//! pushed again at the cycle the port frees, and lost again there if
//! another warp took the port first. Shards built on a thread that
//! selects the oracle still do exactly that (`Shard::repush`);
//! everything else is the engine as it runs. The tests replay every
//! registry kernel at smoke size and seeded contention kernels both
//! ways — serial and deterministic on 1, 2 and 4 threads — and require
//! the same cycles, accounting, per-BB rows, memory counters,
//! controller callbacks and issue stream, while `sim.events` falls to
//! one per instruction plus one per predicted warp.

use crate::shard::Shard;
use gpu_isa::InstClass;
use gpu_mem::Cycle;
use std::cell::{Cell, RefCell};

/// One issue as a shard logs it: `(cycle, warp, class, push moment)`.
pub(crate) type Issue = (Cycle, u64, InstClass, Cycle);

thread_local! {
    static REPUSH: Cell<bool> = const { Cell::new(false) };
    static RECORDED: RefCell<Option<Vec<Issue>>> = const { RefCell::new(None) };
}

/// Whether shards built on this thread re-push instead of using the lane.
pub(crate) fn selected() -> bool {
    REPUSH.with(Cell::get)
}

/// Whether shards built on this thread log their issues.
pub(crate) fn recording() -> bool {
    RECORDED.with_borrow(Option::is_some)
}

/// Moves the issue logs of a finished kernel run to this thread's
/// record, in shard order, while a test is recording.
pub(crate) fn collect(shards: &mut [Shard]) {
    RECORDED.with_borrow_mut(|log| {
        if let Some(log) = log {
            for issues in shards.iter_mut().filter_map(|s| s.issues.as_mut()) {
                log.append(issues);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{EngineConfig, EngineMode};
    use crate::corpus::{self, Call, Case, Script};
    use crate::engine::GpuSimulator;
    use crate::error::SimError;
    use crate::result::KernelResult;
    use gpu_mem::MemStats;

    #[derive(Debug, PartialEq)]
    struct Outcome {
        kernels: Vec<Result<KernelResult, SimError>>,
        mem: MemStats,
        calls: Vec<Call>,
        issues: Vec<Issue>,
    }

    /// Runs the case once; returns what it did and `sim.events`.
    fn run(case: &Case, mode: EngineMode, threads: u32, repush: bool) -> (Outcome, u64) {
        REPUSH.set(repush);
        RECORDED.set(Some(Vec::new()));
        let mut cfg = case.cfg.clone();
        cfg.engine = EngineConfig {
            mode,
            threads,
            quantum: 0,
        };
        let mut gpu = GpuSimulator::new(cfg);
        *gpu.mem_mut() = case.image.clone();
        let mut ctrl = Script::new(case.sample_every, case.abort_after);
        let kernels = case
            .launches
            .iter()
            .map(|l| gpu.run_kernel_sampled(l, &mut ctrl))
            .collect();
        REPUSH.set(false);
        let issues = RECORDED.take().expect("recording");
        let events = gpu
            .telemetry()
            .snapshot()
            .counter("sim.events")
            .unwrap_or(0);
        let outcome = Outcome {
            kernels,
            mem: gpu.mem_stats(),
            calls: ctrl.calls,
            issues,
        };
        (outcome, events)
    }

    /// The first difference between two equally long-or-not sequences.
    fn first_diff<T: PartialEq + std::fmt::Debug>(want: &[T], got: &[T]) -> String {
        match want.iter().zip(got).position(|(w, g)| w != g) {
            Some(i) => format!("at {i}: want {:?}, got {:?}", want[i], got[i]),
            None => format!("lengths {} vs {}", want.len(), got.len()),
        }
    }

    /// Lane against re-push under every mode of the case. Returns the
    /// busy-port retries the lane saved (oracle events − lane events).
    fn check(case: &Case) -> u64 {
        let mut saved = 0;
        for &(mode, threads) in &case.modes {
            let at = format!("{} {mode:?}/{threads}", case.name);
            let (want, want_events) = run(case, mode, threads, true);
            let (got, got_events) = run(case, mode, threads, false);
            assert!(
                want.issues == got.issues,
                "{at}: issue stream {}",
                first_diff(&want.issues, &got.issues)
            );
            assert!(
                want.calls == got.calls,
                "{at}: controller calls {}",
                first_diff(&want.calls, &got.calls)
            );
            assert_eq!(want.kernels, got.kernels, "{at}: kernel results");
            assert_eq!(want.mem, got.mem, "{at}: memory counters");
            let (mut insts, mut moved) = (0, 0);
            for k in got.kernels.iter() {
                let k = k.as_ref().unwrap_or_else(|e| panic!("{at}: {e}"));
                let acct = k.accounting.as_ref().expect("accounting");
                acct.check()
                    .unwrap_or_else(|e| panic!("{at}: accounting: {e}"));
                insts += k.detailed_insts;
                moved += k.detailed_insts + k.predicted_warps;
            }
            assert_eq!(got.issues.len() as u64, insts, "{at}: every issue logged");
            if case.abort_after.is_none() {
                assert_eq!(got_events, moved, "{at}: one event per instruction");
            }
            assert!(got_events <= want_events, "{at}");
            saved += want_events - got_events;
        }
        saved
    }

    #[test]
    fn lane_matches_repush_on_the_registry_benchmarks() {
        let saved: u64 = corpus::registry_benchmarks().iter().map(check).sum();
        assert!(saved > 0, "no benchmark contended for a SIMD port");
    }

    #[test]
    fn lane_matches_repush_on_the_registry_applications() {
        let saved: u64 = corpus::registry_applications().iter().map(check).sum();
        assert!(saved > 0, "no application contended for a SIMD port");
    }

    fn check_corpus(seeds: std::ops::Range<u64>) {
        let saved: u64 = seeds.map(|s| check(&corpus::contention_case(s))).sum();
        assert!(saved > 0, "the corpus never contended for a SIMD port");
    }

    #[test]
    fn lane_matches_repush_on_seeded_contention_kernels_0() {
        check_corpus(0..10);
    }

    #[test]
    fn lane_matches_repush_on_seeded_contention_kernels_1() {
        check_corpus(10..20);
    }
}
