//! Shared experiment machinery: methods, measurements, and tables.

use crate::specs::Method;
use gpu_baselines::{
    PkaConfig, PkaController, SieveConfig, SieveController, TbPointConfig, TbPointController,
};
use gpu_sim::{AppResult, GpuConfig, GpuSimulator, NullController, SamplingController, SimError};
use gpu_telemetry::{BbErrorRow, CycleAccounting, StallClass, Telemetry};
use gpu_workloads::App;
use photon::{PhotonConfig, PhotonController};
use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use std::time::Instant;

/// One measured run, as the executor, reference cache, run journal,
/// `photon-serve` and run reports (`results/BENCH_*.json`) carry it.
/// Report rows written before rows were measurements lack `workload`
/// and `kernel_cycles`, hence their `#[serde(default)]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Measurement {
    /// Workload name.
    #[serde(default)]
    pub workload: String,
    /// Problem size in warps (0 for multi-kernel apps).
    pub warps: u64,
    /// Method name.
    pub method: String,
    /// Simulated kernel time (sum over kernels), in cycles.
    pub sim_cycles: u64,
    /// Host wall time of the simulation, seconds.
    pub wall_secs: f64,
    /// Instructions simulated in detailed mode.
    pub detailed_insts: u64,
    /// Instructions executed functionally only.
    pub functional_insts: u64,
    /// Warps simulated in detailed mode.
    pub detailed_warps: u64,
    /// Warps whose duration was predicted instead of simulated.
    pub predicted_warps: u64,
    /// Kernels skipped by kernel-sampling.
    pub skipped_kernels: usize,
    /// Per-kernel simulated cycles, skipped kernels included.
    #[serde(default)]
    pub kernel_cycles: Vec<u64>,
    /// Cycle accounting merged across the app's kernels (`None` when
    /// every kernel was skipped, so nothing was resident).
    pub accounting: Option<CycleAccounting>,
    /// Per-basic-block predicted-vs-measured error rows across the
    /// app's kernels.
    pub bb_errors: Vec<BbErrorRow>,
}

impl Measurement {
    /// The paper's error metric against a full-detailed reference.
    pub fn error_vs(&self, full: &Measurement) -> f64 {
        (full.sim_cycles as f64 - self.sim_cycles as f64).abs() / full.sim_cycles as f64
    }

    /// The paper's speedup metric against a full-detailed reference.
    pub fn speedup_vs(&self, full: &Measurement) -> f64 {
        full.wall_secs / self.wall_secs.max(1e-9)
    }

    /// Detailed instructions per simulated cycle (0 with no cycles).
    pub fn ipc(&self) -> f64 {
        if self.sim_cycles == 0 {
            0.0
        } else {
            self.detailed_insts as f64 / self.sim_cycles as f64
        }
    }

    /// Fraction of warps simulated in detail (1 with no warps).
    pub fn sample_coverage(&self) -> f64 {
        if self.warps == 0 {
            1.0
        } else {
            self.detailed_warps as f64 / self.warps as f64
        }
    }

    /// The one definition of "the same simulated result": every field in
    /// which `now` differs from this (base) run, as `field was ->
    /// now`; empty when they are the same. Not compared: `wall_secs`
    /// (host time), `workload` (the report names it), and the
    /// `kernel_cycles` of a base row written before that field existed.
    pub fn differences(&self, now: &Measurement) -> Vec<String> {
        // Destructured, so a new field cannot be left out unnoticed.
        let Measurement {
            workload: _,
            wall_secs: _,
            warps,
            method,
            sim_cycles,
            detailed_insts,
            functional_insts,
            detailed_warps,
            predicted_warps,
            skipped_kernels,
            kernel_cycles,
            accounting,
            bb_errors,
        } = self;
        let out = &mut Vec::new();
        differ(out, "method", method, &now.method);
        for (field, was, is) in [
            ("warps", warps, &now.warps),
            ("sim_cycles", sim_cycles, &now.sim_cycles),
            ("detailed_insts", detailed_insts, &now.detailed_insts),
            ("functional_insts", functional_insts, &now.functional_insts),
            ("detailed_warps", detailed_warps, &now.detailed_warps),
            ("predicted_warps", predicted_warps, &now.predicted_warps),
        ] {
            differ(out, field, was, is);
        }
        let skipped = (skipped_kernels, &now.skipped_kernels);
        differ(out, "skipped_kernels", skipped.0, skipped.1);
        if !kernel_cycles.is_empty() {
            differ_rows(out, "kernel_cycles", kernel_cycles, &now.kernel_cycles);
        }
        match (accounting, &now.accounting) {
            (Some(was), Some(now)) => differ_accounting(out, was, now),
            (was, now) => differ(out, "accounting present", &was.is_some(), &now.is_some()),
        }
        differ_rows(out, "bb_errors", bb_errors, &now.bb_errors);
        std::mem::take(out)
    }

    /// What a byte-budgeted store charges for holding this measurement
    /// when no rendered text of it is at hand: the struct plus its row
    /// vectors, from their lengths alone — no rendering, no walk of the
    /// rows.
    pub fn footprint(&self) -> u64 {
        use std::mem::{size_of, size_of_val};
        let accounting = self.accounting.as_ref().map_or(0, |a| {
            size_of_val(a.cus.as_slice()) + size_of_val(a.timeline.as_slice())
        });
        (size_of::<Self>()
            + size_of_val(self.kernel_cycles.as_slice())
            + size_of_val(self.bb_errors.as_slice())
            + accounting) as u64
    }
}

/// Flags `field` when `was` and `now` differ.
fn differ<T: PartialEq + std::fmt::Debug>(out: &mut Vec<String>, field: &str, was: &T, now: &T) {
    if was != now {
        out.push(format!("{field} {was:?} -> {now:?}"));
    }
}

/// Flags a row list whose length differs, or its first differing row
/// and how many more differ.
fn differ_rows<T: PartialEq + std::fmt::Debug>(
    out: &mut Vec<String>,
    field: &str,
    was: &[T],
    now: &[T],
) {
    differ(out, &format!("{field} rows"), &was.len(), &now.len());
    let mut rows = was.iter().zip(now).enumerate().filter(|(_, (a, b))| a != b);
    if let Some((i, (a, b))) = rows.next() {
        let more = rows.count();
        out.push(format!(
            "{field}[{i}] {a:?} -> {b:?} ({more} more rows differ)"
        ));
    }
}

/// Flags two cycle accountings' differences: the summary fields, each
/// stall class whose total moved, then the rows. Not `shards`: it
/// re-tallies the per-CU counts by the engine's event domains,
/// [`CycleAccounting::check`] holds it to them, and it is not
/// persisted, so a result read back from disk has none.
fn differ_accounting(out: &mut Vec<String>, was: &CycleAccounting, now: &CycleAccounting) {
    differ(out, "accounting.cycles", &was.cycles, &now.cycles);
    differ(out, "accounting.window", &was.window, &now.window);
    let (before, after) = (was.totals(), now.totals());
    for class in StallClass::ALL {
        let (name, i) = (format!("accounting.{}", class.name()), class.index());
        differ(out, &name, &before[i], &after[i]);
    }
    differ_rows(out, "accounting.cus", &was.cus, &now.cus);
    differ_rows(out, "accounting.timeline", &was.timeline, &now.timeline);
}

/// A closure that prepares an application on a fresh simulator.
pub type AppBuilder<'a> = dyn Fn(&mut GpuSimulator) -> App + 'a;

fn make_controller(
    method: &Method,
    pcfg: &PhotonConfig,
    num_cus: u64,
) -> Box<dyn SamplingController> {
    match method {
        Method::Full => Box::new(NullController),
        Method::Photon(levels) => {
            let mut cfg = pcfg.clone();
            cfg.levels = *levels;
            Box::new(PhotonController::new(cfg, num_cus))
        }
        Method::Pka => Box::new(PkaController::new(PkaConfig::default())),
        Method::TbPoint => Box::new(TbPointController::new(TbPointConfig::default())),
        Method::Sieve => Box::new(SieveController::new(SieveConfig::default())),
    }
}

/// Runs an application under a method on a fresh simulator and
/// measures it, surfacing simulator errors as typed values instead of
/// panics. Counters and (once tracing is enabled on it) trace events
/// land in `telemetry`.
///
/// # Errors
/// Returns the first [`SimError`] the application run hits.
pub fn try_run_app_method(
    gpu_cfg: &GpuConfig,
    name: &str,
    build: &AppBuilder<'_>,
    method: &Method,
    pcfg: &PhotonConfig,
    telemetry: &Telemetry,
) -> Result<Measurement, SimError> {
    let mut gpu = GpuSimulator::with_telemetry(gpu_cfg.clone(), telemetry.clone());
    let app = build(&mut gpu);
    let mut ctrl = make_controller(method, pcfg, gpu_cfg.num_cus as u64);
    let t0 = Instant::now();
    let result = app.run(&mut gpu, ctrl.as_mut())?;
    let wall = t0.elapsed().as_secs_f64();
    Ok(Measurement {
        workload: name.to_string(),
        warps: app.total_warps(),
        method: method.name(),
        sim_cycles: result.total_cycles(),
        wall_secs: wall,
        detailed_insts: result.total_detailed_insts(),
        functional_insts: result.total_functional_insts(),
        detailed_warps: result.total_detailed_warps(),
        predicted_warps: result.total_predicted_warps(),
        skipped_kernels: result.skipped_kernels(),
        kernel_cycles: result.kernels.iter().map(|k| k.cycles).collect(),
        accounting: merge_accounting(&result),
        bb_errors: bb_error_rows(&result),
    })
}

/// Merges the per-kernel cycle-accounting snapshots of an app run into
/// one (timelines concatenate; per-CU classes add).
fn merge_accounting(result: &AppResult) -> Option<CycleAccounting> {
    let mut merged: Option<CycleAccounting> = None;
    for k in &result.kernels {
        if let Some(a) = &k.accounting {
            merged.get_or_insert_with(CycleAccounting::default).merge(a);
        }
    }
    merged
}

/// Builds the per-BB prediction-error rows for an app run: measured
/// values come from the engine's per-BB accounting; the predicted mean
/// is the controller's published estimate when it modeled the block
/// (Photon), otherwise a uniform-CPI equivalent (instructions-per-
/// instance × the kernel's mean per-warp block CPI) so IPC-
/// extrapolating baselines (PKA, Sieve) still decompose against the
/// same yardstick: the delta then reads "how far this block deviates
/// from uniform per-instruction timing".
fn bb_error_rows(result: &AppResult) -> Vec<BbErrorRow> {
    let mut rows = Vec::new();
    for k in &result.kernels {
        // Per-warp latency CPI over the kernel's measured blocks — the
        // same unit as `measured_mean` (a warp's residency through the
        // block), NOT wall-cycles per instruction, which would be ~N×
        // smaller with N warps in flight.
        let bb_cycles: u64 = k.bb_stats.iter().map(|b| b.cycles).sum();
        let bb_insts: u64 = k.bb_stats.iter().map(|b| b.insts).sum();
        let cpi = if bb_insts > 0 {
            bb_cycles as f64 / bb_insts as f64
        } else {
            0.0
        };
        for b in &k.bb_stats {
            let measured_mean = b.measured_mean();
            let predicted_mean = b.predicted_mean.unwrap_or(if b.instances == 0 {
                0.0
            } else {
                b.insts as f64 / b.instances as f64 * cpi
            });
            rows.push(BbErrorRow {
                kernel: k.name.clone(),
                bb: b.bb,
                instances: b.instances,
                insts: b.insts,
                measured_cycles: b.cycles,
                measured_mean,
                predicted_mean,
                delta: predicted_mean - measured_mean,
                stall: b.stall,
            });
        }
    }
    rows
}

/// Whether a failed run is worth retrying.
///
/// The executor's retry budget applies only to [`Transient`] failures —
/// panics, timeouts, and infrastructure hiccups that a fresh attempt
/// may not reproduce. A [`Permanent`] failure is a deterministic
/// property of the spec (a typed [`SimError`]): re-running it burns
/// time to fail identically, so it is skipped once and journaled.
///
/// [`Transient`]: FailureKind::Transient
/// [`Permanent`]: FailureKind::Permanent
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FailureKind {
    /// Nondeterministic or environmental: retry may succeed.
    Transient,
    /// Deterministic for this spec: retrying reproduces the failure.
    Permanent,
}

/// Result of a guarded (panic- and hang-isolated) executor run: either a
/// measurement, or a structured skip explaining why this configuration
/// produced none. Skips serialize into result files so a partially
/// failing sweep still documents its holes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum RunOutcome {
    /// The run finished and was measured.
    Completed(Measurement),
    /// The run was abandoned; siblings continue.
    Skipped {
        /// Workload name.
        workload: String,
        /// Method name.
        method: String,
        /// Human-readable cause (panic message, timeout, ...).
        reason: String,
        /// The typed simulator error rendered to text, when the skip
        /// came from a [`SimError`] (None for panics and timeouts).
        /// Serialized into result files so reports keep the diagnosis.
        error: Option<String>,
        /// Whether a retry could plausibly succeed (drives the
        /// executor's retry budget and journal eligibility).
        failure: FailureKind,
    },
}

impl RunOutcome {
    /// The measurement, if the run completed.
    pub fn measurement(&self) -> Option<&Measurement> {
        match self {
            RunOutcome::Completed(m) => Some(m),
            RunOutcome::Skipped { .. } => None,
        }
    }

    /// The failure kind, if the run was skipped.
    pub fn failure(&self) -> Option<FailureKind> {
        match self {
            RunOutcome::Completed(_) => None,
            RunOutcome::Skipped { failure, .. } => Some(*failure),
        }
    }
}

/// Worker threads abandoned by the timeout path since process start.
/// A timed-out simulation cannot be cancelled, only detached — this
/// counter makes the leak visible (executors publish it as the
/// `exec.abandoned_threads` gauge).
static ABANDONED: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Total worker threads abandoned on timeout since process start.
pub fn abandoned_threads() -> u64 {
    ABANDONED.load(std::sync::atomic::Ordering::Relaxed)
}

/// Records one abandoned worker thread (called by every timeout path).
pub(crate) fn note_abandoned_thread() {
    ABANDONED.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
}

pub(crate) fn panic_reason(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A printable results table.
#[derive(Debug, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// True when no rows have been appended.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Appends a row (must match the header count).
    ///
    /// # Panics
    /// Panics on column-count mismatch.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Directory experiment outputs (JSON/CSV) are written to.
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join("results");
    std::fs::create_dir_all(&dir).ok();
    dir
}

/// Writes measurements as JSON under `results/<name>.json` (atomically:
/// a crash mid-write leaves the previous file, never a torn one).
pub fn write_json<T: Serialize>(name: &str, data: &T) {
    let path = results_dir().join(format!("{name}.json"));
    match serde_json::to_string_pretty(data) {
        Ok(s) => {
            if let Err(e) = crate::persist::atomic_write(&path, &s) {
                eprintln!("warning: could not write {}: {e}", path.display());
            } else {
                println!("(wrote {})", path.display());
            }
        }
        Err(e) => eprintln!("warning: could not serialize {name}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["a", "bench"]);
        t.row(vec!["1".into(), "x".into()]);
        let s = t.render();
        assert!(s.contains("bench"));
        assert_eq!(s.lines().count(), 3);
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn table_rejects_bad_rows() {
        let mut t = Table::new(&["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn measurement_metrics() {
        let full = Measurement {
            workload: "x".into(),
            warps: 1,
            method: "Full".into(),
            sim_cycles: 1000,
            wall_secs: 2.0,
            detailed_insts: 0,
            functional_insts: 0,
            detailed_warps: 0,
            predicted_warps: 0,
            skipped_kernels: 0,
            kernel_cycles: vec![],
            accounting: None,
            bb_errors: vec![],
        };
        let fast = Measurement {
            sim_cycles: 900,
            wall_secs: 0.5,
            method: "Photon".into(),
            ..full.clone()
        };
        assert!((fast.error_vs(&full) - 0.1).abs() < 1e-12);
        assert!((fast.speedup_vs(&full) - 4.0).abs() < 1e-12);
    }

    /// A row with every field set: two kernels, a two-CU accounting with
    /// a timeline and a shard re-tally, and one BB row.
    fn row() -> Measurement {
        use gpu_telemetry::{CuAccounting, ShardAccounting, StallWindow};
        let classes = [40, 0, 30, 20, 0, 0, 10, 0];
        let cu = CuAccounting {
            classes,
            resident_warp_cycles: 100,
        };
        Measurement {
            workload: "fir".into(),
            warps: 64,
            method: "Photon".into(),
            sim_cycles: 1000,
            wall_secs: 0.5,
            detailed_insts: 800,
            functional_insts: 200,
            detailed_warps: 8,
            predicted_warps: 56,
            skipped_kernels: 1,
            kernel_cycles: vec![600, 400],
            accounting: Some(CycleAccounting {
                cycles: 1000,
                window: 64,
                cus: vec![cu, cu],
                timeline: vec![StallWindow { start: 0, classes }],
                shards: vec![ShardAccounting {
                    shard: 0,
                    classes,
                    resident_warp_cycles: 100,
                }],
            }),
            bb_errors: vec![BbErrorRow {
                kernel: "fir".into(),
                bb: 3,
                instances: 10,
                insts: 80,
                measured_cycles: 100,
                measured_mean: 10.0,
                predicted_mean: 10.5,
                delta: 0.5,
                stall: classes,
            }],
        }
    }

    fn acct(m: &mut Measurement) -> &mut CycleAccounting {
        m.accounting.as_mut().expect("row() carries accounting")
    }

    #[test]
    fn every_field_but_host_time_and_workload_is_a_difference() {
        let base = row();
        assert!(base.differences(&base).is_empty());
        let renamed = Measurement {
            workload: "fir_again".into(),
            wall_secs: 50.0,
            ..base.clone()
        };
        assert!(base.differences(&renamed).is_empty());
        // Nor is the shard re-tally, which a row read from disk lacks.
        let mut read_back = base.clone();
        acct(&mut read_back).shards.clear();
        assert!(base.differences(&read_back).is_empty());

        type Mutation = (&'static str, fn(&mut Measurement));
        let mutations: [Mutation; 22] = [
            ("warps 64 -> 65", |m| m.warps += 1),
            ("method \"Photon\" -> \"PKA\"", |m| m.method = "PKA".into()),
            ("sim_cycles 1000 -> 999", |m| m.sim_cycles -= 1),
            ("detailed_insts", |m| m.detailed_insts += 1),
            ("functional_insts", |m| m.functional_insts += 1),
            ("detailed_warps", |m| m.detailed_warps += 1),
            ("predicted_warps", |m| m.predicted_warps += 1),
            ("skipped_kernels 1 -> 0", |m| m.skipped_kernels = 0),
            ("kernel_cycles[1] 400 -> 401", |m| m.kernel_cycles[1] += 1),
            ("kernel_cycles rows 2 -> 1", |m| {
                m.kernel_cycles.pop();
            }),
            ("accounting present true -> false", |m| m.accounting = None),
            ("accounting.cycles", |m| acct(m).cycles += 1),
            ("accounting.window", |m| acct(m).window *= 2),
            // One warp-cycle moved between two stall classes on one CU:
            // every sum still balances.
            ("accounting.mem_pending 60 -> 59", |m| {
                let cu = &mut acct(m).cus[1];
                cu.classes[StallClass::MemPending.index()] -= 1;
                cu.classes[StallClass::MemQueueFull.index()] += 1;
            }),
            // The same move on both CUs in opposite directions leaves
            // the class totals alone; the rows still differ.
            ("accounting.cus[0]", |m| {
                let cus = &mut acct(m).cus;
                cus[0].classes[0] -= 1;
                cus[0].classes[2] += 1;
                cus[1].classes[0] += 1;
                cus[1].classes[2] -= 1;
            }),
            ("accounting.timeline[0]", |m| acct(m).timeline[0].start += 1),
            ("accounting.timeline rows 1 -> 0", |m| {
                acct(m).timeline.clear()
            }),
            ("bb_errors[0]", |m| m.bb_errors[0].predicted_mean += 0.25),
            ("bb_errors[0]", |m| m.bb_errors[0].kernel = "mm".into()),
            ("bb_errors[0]", |m| m.bb_errors[0].stall[0] += 1),
            ("bb_errors[0]", |m| m.bb_errors[0].measured_mean = 10.000001),
            ("bb_errors rows 1 -> 0", |m| m.bb_errors.clear()),
        ];
        for (flag, mutate) in mutations {
            let mut cur = base.clone();
            mutate(&mut cur);
            let found = base.differences(&cur);
            assert!(
                found.first().is_some_and(|d| d.starts_with(flag)),
                "{flag}: {found:?}"
            );
        }

        // Every serialised field of the row, bar the two exempt ones,
        // is the subject of a mutation above.
        let serde_json::Value::Object(fields) = serde_json::to_value(&base) else {
            panic!("a measurement serialises to an object");
        };
        for (name, _) in fields {
            let exempt = name == "workload" || name == "wall_secs";
            let mutated = mutations.iter().any(|(flag, _)| flag.starts_with(&name));
            assert!(
                exempt != mutated,
                "{name}: exempt {exempt}, mutated {mutated}"
            );
        }
    }

    #[test]
    fn a_legacy_base_row_is_not_held_to_kernel_cycles() {
        let legacy = Measurement {
            kernel_cycles: Vec::new(),
            ..row()
        };
        assert!(legacy.differences(&row()).is_empty());
        // The other way round, kernels went missing.
        assert_eq!(row().differences(&legacy), ["kernel_cycles rows 2 -> 0"]);
    }
}
