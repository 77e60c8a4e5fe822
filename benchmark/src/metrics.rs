//! The metric tables (`BENCHMARK.json` repeats them; a test keeps the
//! two in step) and the result a run prints as its last line.

use crate::stats::{summarize, valid_name};
use serde_json::Value;

/// `(name, unit, better, bound)`: what a user of the system sees. The
/// bound is the share of the parent's median a later change may lose.
pub const END_TO_END: [(&str, &str, &str, f64); 5] = [
    ("setup_s", "s", "lower", 0.25),
    ("full_minsts_per_s", "Minsts/s", "higher", 0.25),
    ("photon_wall_s", "s", "lower", 0.25),
    ("photon_accuracy_pct", "%", "higher", 0.0025),
    ("peak_rss_mb", "MB", "lower", 0.10),
];

/// `(name, unit, better)`: one layer each, named `<crate>.<what>`.
pub const PER_LAYER: [(&str, &str, &str); 76] = [
    ("isa.kernels", "count", "lower"),
    ("isa.static_insts", "count", "lower"),
    ("isa.validate_us_per_kernel", "us", "lower"),
    ("workloads.build_s", "s", "lower"),
    ("workloads.device_mb", "MB", "lower"),
    ("mem.replay_reqs", "count", "lower"),
    ("mem.replay_lines", "count", "lower"),
    ("mem.lines_per_req", "lines/req", "lower"),
    ("mem.legacy_ns_per_line", "ns", "lower"),
    ("mem.detailed_ns_per_line", "ns", "lower"),
    ("mem.port_ns_per_req", "ns", "lower"),
    ("mem.addrspace_ns_per_u32", "ns", "lower"),
    ("mem.l1v_hit_rate", "ratio", "higher"),
    ("mem.l2_hit_rate", "ratio", "higher"),
    ("mem.dram_accesses", "count", "lower"),
    ("mem.l1v_mshr_merges", "count", "higher"),
    ("mem.dram_queue_p50", "cycles", "lower"),
    ("sim.insts_detailed", "count", "lower"),
    ("sim.events", "count", "lower"),
    ("sim.cycles_full", "cycles", "lower"),
    ("sim.cycles_photon", "cycles", "lower"),
    ("sim.host_ns_per_inst", "ns", "lower"),
    ("sim.host_ns_per_event", "ns", "lower"),
    ("sim.host_us_per_cycle", "us", "lower"),
    ("sim.functional_minsts_per_s", "Minsts/s", "higher"),
    ("sim.trace_warp_us", "us", "lower"),
    ("sim.calendar_near_ns_per_op", "ns", "lower"),
    ("sim.calendar_far_ns_per_op", "ns", "lower"),
    ("sim.memfree_minsts_per_s", "Minsts/s", "higher"),
    ("sim.kernel_launch_us", "us", "lower"),
    ("sim.overlay_ns_per_write", "ns", "lower"),
    ("sim.epochs", "count", "lower"),
    ("sim.epoch_imbalance", "ratio", "lower"),
    ("sim.epoch_barrier_s", "s", "lower"),
    ("sim.epoch_mem_service_s", "s", "lower"),
    ("sim.det2_vs_serial", "ratio", "higher"),
    ("core.photon_speedup", "ratio", "higher"),
    ("core.photon_err_pct", "%", "lower"),
    ("core.detailed_frac", "ratio", "lower"),
    ("core.predicted_warp_frac", "ratio", "higher"),
    ("core.functional_insts", "count", "lower"),
    ("core.kernels_skipped", "count", "higher"),
    ("core.bb_switches", "count", "higher"),
    ("core.warp_switches", "count", "higher"),
    ("core.bb_record_ns", "ns", "lower"),
    ("core.warp_record_ns", "ns", "lower"),
    ("core.kernel_start_us", "us", "lower"),
    ("core.history_match_us", "us", "lower"),
    ("baselines.pka_wall_s", "s", "lower"),
    ("baselines.pka_err_pct", "%", "lower"),
    ("bench.executor_overhead_ms", "ms", "lower"),
    ("bench.persist_write_us", "us", "lower"),
    ("bench.persist_read_us", "us", "lower"),
    ("bench.measurement_json_kb", "kB", "lower"),
    ("bench.refcache_mem_hit_us", "us", "lower"),
    ("bench.refcache_disk_hit_us", "us", "lower"),
    ("serve.cold_p50_ms", "ms", "lower"),
    ("serve.warm_p50_ms", "ms", "lower"),
    ("serve.warm_jobs_per_s", "1/s", "higher"),
    ("serve.submit_rtt_us", "us", "lower"),
    ("serve.wait_rtt_us", "us", "lower"),
    ("serve.fetch_rtt_us", "us", "lower"),
    ("serve.cold_tail_ms", "ms", "lower"),
    ("serve.cold_tail_pct", "%", "higher"),
    ("serve.warm_tail_ms", "ms", "lower"),
    ("serve.warm_tail_pct", "%", "higher"),
    ("serve.cache_hit_rate", "ratio", "higher"),
    ("serve.coalesce_rate", "ratio", "higher"),
    ("serve.sim_runs", "count", "lower"),
    ("serve.rejected", "count", "lower"),
    ("serve.queued_ms_p50", "ms", "lower"),
    ("telemetry.counter_inc_ns", "ns", "lower"),
    ("telemetry.hist_observe_ns", "ns", "lower"),
    ("telemetry.span_guard_ns", "ns", "lower"),
    ("telemetry.snapshot_us", "us", "lower"),
    ("trace_overhead_pct", "%", "lower"),
];

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|(n, u, _, _)| (*n, *u))
        .chain(PER_LAYER.iter().map(|(n, u, _)| (*n, *u)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

/// One reported number. A timing carries the samples it was taken
/// from, so the printout can state median, min, max and sample count.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub series: Vec<f64>,
}

/// Everything a run of one workload reports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl RunResult {
    pub fn put(&mut self, name: &str, value: f64) {
        assert!(valid_name(name), "metric name {name:?} breaks the contract");
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            series: Vec::new(),
        });
    }

    pub fn put_series(&mut self, name: &str, value: f64, series: &[f64]) {
        self.put(name, value);
        if let Some(m) = self.metrics.last_mut() {
            m.series = series.to_vec();
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Counts one attempt and whether it failed; returns `ok` so checks
    /// can chain.
    pub fn attempt(&mut self, ok: bool) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        ok
    }

    /// The samples behind every timing, for the result file.
    pub fn series_json(&self) -> Value {
        Value::Object(
            self.metrics
                .iter()
                .filter(|m| !m.series.is_empty())
                .map(|m| (m.name.clone(), serde_json::json!(m.series)))
                .collect(),
        )
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Prints every metric by name with its unit, then `failed_frac`.
    pub fn print(&self, noise_tag: &str) {
        self.print_metrics(noise_tag);
        println!(
            "  {:<30} {:>14.6} {:<9} ({} failed of {} attempted)",
            "failed_frac",
            self.failed_frac(),
            "ratio",
            self.failed,
            self.attempted
        );
    }

    /// Prints the metrics; `tag` goes beside every timing.
    pub fn print_metrics(&self, tag: &str) {
        for m in &self.metrics {
            let unit = unit_of(&m.name);
            if m.series.is_empty() {
                println!("  {:<30} {:>14.6} {unit}", m.name, m.value);
            } else {
                let s = summarize(&m.series);
                println!(
                    "  {:<30} {:>14.6} {:<9} (median {:.6}, min {:.6}, max {:.6}, n={}){tag}",
                    m.name, m.value, unit, s.median, s.min, s.max, s.n
                );
            }
        }
    }

    /// The contract's result object: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn to_json(&self) -> Value {
        Value::Object(vec![
            ("correct".to_string(), Value::Bool(self.correct)),
            ("attempted".to_string(), Value::U64(self.attempted.max(1))),
            ("failed".to_string(), Value::U64(self.failed)),
            (
                "metrics".to_string(),
                Value::Object(
                    self.metrics
                        .iter()
                        .map(|m| {
                            (
                                m.name.clone(),
                                serde_json::json!({
                                    "value": m.value,
                                    "unit": unit_of(&m.name),
                                }),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }

    pub fn from_json(v: &Value) -> Result<RunResult, String> {
        let num = |v: Option<&Value>| match v {
            Some(Value::U64(n)) => Ok(*n as f64),
            Some(Value::I64(n)) => Ok(*n as f64),
            Some(Value::F64(n)) => Ok(*n),
            _ => Err("expected a number".to_string()),
        };
        let Some(Value::Object(metrics)) = v.get("metrics") else {
            return Err("no metrics object".to_string());
        };
        Ok(RunResult {
            correct: matches!(v.get("correct"), Some(Value::Bool(true))),
            attempted: num(v.get("attempted"))? as u64,
            failed: num(v.get("failed"))? as u64,
            metrics: metrics
                .iter()
                .map(|(name, m)| {
                    Ok(Metric {
                        name: name.clone(),
                        value: num(m.get("value"))?,
                        series: Vec::new(),
                    })
                })
                .collect::<Result<_, String>>()?,
        })
    }

    /// Whether exactly the named metrics are present, each finite.
    pub fn covers(&self, names: &[&str]) -> Result<(), String> {
        for n in names {
            match self.get(n) {
                Some(v) if v.is_finite() => {}
                Some(v) => return Err(format!("{n} is {v}")),
                None => return Err(format!("{n} missing")),
            }
        }
        match self
            .metrics
            .iter()
            .find(|m| !names.contains(&m.name.as_str()))
        {
            Some(extra) => Err(format!("{} is not declared", extra.name)),
            None => Ok(()),
        }
    }
}

pub fn end_to_end_names() -> Vec<&'static str> {
    END_TO_END.iter().map(|(n, _, _, _)| *n).collect()
}

pub fn per_layer_names() -> Vec<&'static str> {
    PER_LAYER.iter().map(|(n, _, _)| *n).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::NAMES;

    fn text(v: &Value, key: &str) -> String {
        match v.get(key) {
            Some(Value::String(s)) => s.clone(),
            other => panic!("{key}: {other:?}"),
        }
    }

    fn array<'a>(v: &'a Value, key: &str) -> &'a [Value] {
        match v.get(key) {
            Some(Value::Array(a)) => a,
            other => panic!("{key}: {other:?}"),
        }
    }

    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc: Value = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        let Value::Object(fields) = &doc else {
            panic!("not an object")
        };
        let mut keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        keys.sort_unstable();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        let workloads: Vec<String> = array(&doc, "workloads")
            .iter()
            .map(|w| text(w, "name"))
            .collect();
        assert_eq!(workloads, NAMES);
        for w in array(&doc, "workloads") {
            let why = text(w, "why");
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
        let e2e: Vec<(String, String, String, f64)> = array(&doc, "end_to_end")
            .iter()
            .map(|m| {
                let bound = match m.get("bound") {
                    Some(Value::F64(b)) => *b,
                    other => panic!("bound: {other:?}"),
                };
                (text(m, "name"), text(m, "unit"), text(m, "better"), bound)
            })
            .collect();
        let want: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|(n, u, b, bound)| (n.to_string(), u.to_string(), b.to_string(), *bound))
            .collect();
        assert_eq!(e2e, want);
        let layers: Vec<(String, String, String)> = array(&doc, "per_layer")
            .iter()
            .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
            .collect();
        let want: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
            .collect();
        assert_eq!(layers, want);
    }

    #[test]
    fn names_units_and_bounds_are_within_the_contract() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .map(|(n, u, _, _)| (*n, *u))
            .chain(PER_LAYER.iter().map(|(n, u, _)| (*n, *u)))
            .chain(NAMES.iter().map(|n| (*n, "count")))
        {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} used twice");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
        assert!(END_TO_END.iter().all(|(_, _, _, b)| *b > 0.0 && *b <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|(n, u, b, _)| (*n, *u, *b) == ("setup_s", "s", "lower")));
    }

    #[test]
    fn result_json_round_trips_with_exactly_the_contract_keys() {
        let mut r = RunResult {
            correct: true,
            ..RunResult::default()
        };
        r.attempt(true);
        r.attempt(false);
        r.put("setup_s", 0.012345678);
        r.put("sim.cycles_full", 65452.0);
        let v = r.to_json();
        let Value::Object(fields) = &v else { panic!() };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let line = serde_json::to_string(&v).unwrap();
        assert!(!line.contains('\n'));
        let back = RunResult::from_json(&serde_json::from_str(&line).unwrap()).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.failed_frac(), 0.5);
        assert!(back.covers(&["setup_s", "sim.cycles_full"]).is_ok());
        assert!(back.covers(&["setup_s"]).is_err());
        assert!(back.covers(&["setup_s", "sim.cycles_full", "x"]).is_err());
    }
}
