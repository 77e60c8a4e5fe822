//! The `report` binary as CI runs it: `report diff`'s exit code on a
//! committed baseline and on one-field mutations of it, and the refusal
//! of executor flags outside `report smoke`.

use gpu_telemetry::StallClass;
use photon_bench::atomic_write_framed;
use photon_bench::report::{load_report, RunReport};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn report(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_report"))
        .args(args)
        .output()
        .expect("the report binary runs")
}

fn baseline() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/baselines/BENCH_smoke.json")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn report_diff_exits_1_on_any_difference_and_0_on_none() {
    let base_path = baseline();
    let base_arg = base_path.to_str().expect("a UTF-8 path");
    let same = report(&["diff", base_arg, base_arg]);
    assert_eq!(same.status.code(), Some(0), "{}", stdout(&same));
    assert!(stdout(&same).contains("the same simulated result"));

    let base = load_report(&base_path).expect("the committed baseline loads");
    let dir = std::env::temp_dir().join(format!("photon-report-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    type Mutation = (&'static str, fn(&mut RunReport), &'static str);
    let mutations: [Mutation; 4] = [
        (
            "stall_move",
            |r| {
                let cu = &mut r.runs[0].accounting.as_mut().unwrap().cus[0];
                cu.classes[StallClass::MemPending.index()] -= 1;
                cu.classes[StallClass::MemQueueFull.index()] += 1;
            },
            "DIFFERENT smoke / Full: accounting.mem_pending ",
        ),
        (
            "bb_error",
            |r| r.runs[0].bb_errors[0].predicted_mean += 0.5,
            "DIFFERENT smoke / Full: bb_errors[0] ",
        ),
        (
            "method_dropped",
            |r| {
                r.runs.pop();
            },
            "DIFFERENT smoke / Photon: completed -> missing",
        ),
        (
            "unbalanced",
            |r| {
                let cu = &mut r.runs[0].accounting.as_mut().unwrap().cus[0];
                cu.resident_warp_cycles += 1;
            },
            "DIFFERENT smoke / Full: cu 0: stall classes sum to ",
        ),
    ];
    for (name, mutate, expected) in mutations {
        let mut cur = base.clone();
        mutate(&mut cur);
        let path = dir.join(format!("BENCH_{name}.json"));
        atomic_write_framed(&path, &serde_json::to_string_pretty(&cur).unwrap()).unwrap();
        let out = report(&["diff", base_arg, path.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(1), "{name}: {}", stdout(&out));
        assert!(stdout(&out).contains(expected), "{name}: {}", stdout(&out));
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn executor_flags_are_refused_outside_smoke() {
    for (args, refusal) in [
        (
            &["check", "--no-cache", "--engine", "deterministic"][..],
            "report check does not take --no-cache",
        ),
        (&["show", "--jobs", "2"], "report show does not take --jobs"),
        (
            &["diff", "a.json", "b.json", "--engine-threads", "4"],
            "report diff does not take --engine-threads",
        ),
    ] {
        let out = report(args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert_eq!(err.lines().count(), 1, "{args:?}: {err}");
        assert!(err.starts_with(refusal), "{args:?}: {err}");
    }
}
