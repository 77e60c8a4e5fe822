//! The pre-decoded program and its register footprint against the
//! encoding they were derived from.
//!
//! The interpreter and the shard read an instruction's class, its
//! `slow` flag and "does a basic block start here?" from
//! `Program::decoded()`; everything else in the repository (PKA's
//! feature counts, the controller's block map, the disassembler) still
//! derives them from the encoded `Inst`. For every kernel of every
//! registry application and every pc, the two must agree. A warp's
//! vector register file is `Program::vreg_footprint()` registers, which
//! must be the smallest limit validation accepts. A program that went
//! through serde, which drops both caches, must decode to the same
//! table and the same footprint.

use gpu_isa::{validate_program, Inst, KernelLimits, Program, SAluOp, VAluOp, MAX_SREGS};
use gpu_sim::{GpuConfig, GpuSimulator};
use gpu_workloads::dnn::DnnScale;
use gpu_workloads::registry::{Benchmark, RealWorldApp};
use gpu_workloads::App;

/// The `slow` classification `exec::step` used to compute per step.
fn is_slow(inst: &Inst) -> bool {
    match inst {
        Inst::SAlu { op, .. } => matches!(op, SAluOp::Div | SAluOp::Rem),
        Inst::VAlu { op, .. } => matches!(op, VAluOp::Div | VAluOp::Rem | VAluOp::FDiv),
        _ => false,
    }
}

fn check_program(app: &str, program: &Program) {
    let ops = program.decoded();
    let blocks = program.basic_blocks();
    assert_eq!(ops.len(), program.len(), "{app}/{}", program.name());
    for (pc, (op, inst)) in ops.iter().zip(program.insts()).enumerate() {
        let at = format!("{app}/{} pc {pc}: {inst:?}", program.name());
        assert_eq!(op.class, inst.class(), "{at}");
        assert_eq!(op.slow, is_slow(inst), "{at}");
        assert_eq!(
            op.block_start(),
            blocks.block_starting_at(pc as u32),
            "{at}"
        );
    }

    let footprint = program.vreg_footprint();
    assert_eq!(
        footprint,
        smallest_vreg_limit(program),
        "{app}/{}",
        program.name()
    );

    let json = serde_json::to_string(program).unwrap();
    assert!(
        !json.contains("footprint"),
        "the footprint is not serialised"
    );
    let reloaded: Program = serde_json::from_str(&json).unwrap();
    assert_eq!(reloaded.decoded(), ops, "{app}/{}", program.name());
    assert_eq!(
        reloaded.vreg_footprint(),
        footprint,
        "{app}/{}",
        program.name()
    );
}

/// The smallest `KernelLimits::vregs` that `validate_program` accepts.
fn smallest_vreg_limit(program: &Program) -> usize {
    (0..)
        .find(|&vregs| {
            let limits = KernelLimits {
                sregs: MAX_SREGS,
                vregs,
            };
            validate_program(program, &limits).is_ok()
        })
        .unwrap()
}

/// Checks every distinct program of `app`; returns their names and
/// footprints.
fn check_app(app: &App) -> Vec<(String, usize)> {
    let mut seen: Vec<*const Program> = Vec::new();
    let mut footprints = Vec::new();
    for l in app.launches() {
        let program = l.launch.kernel.program();
        let id = std::sync::Arc::as_ptr(program);
        if !seen.contains(&id) {
            seen.push(id);
            check_program(app.name(), program);
            footprints.push((program.name().to_string(), program.vreg_footprint()));
        }
    }
    footprints
}

#[test]
fn decoded_table_agrees_with_the_encoding_on_every_registry_kernel() {
    let scale = DnnScale {
        input_hw: 32,
        channel_div: 32,
    };
    let mut programs = Vec::new();
    for b in Benchmark::ALL {
        let mut gpu = GpuSimulator::new(GpuConfig::tiny());
        programs.extend(check_app(&b.build(&mut gpu, 64, 1)));
    }
    for a in RealWorldApp::figure16() {
        let a = match a {
            RealWorldApp::PageRank(_) => RealWorldApp::PageRank(256),
            dnn => dnn,
        };
        let mut gpu = GpuSimulator::new(GpuConfig::tiny());
        programs.extend(check_app(&a.build(&mut gpu, scale, 1)));
    }
    // Table 2's six kernels plus PageRank's and the DNN layer kernels.
    assert!(
        programs.len() > 6 + 2 * 7,
        "only {} programs checked",
        programs.len()
    );
    // The footprints DESIGN.md quotes for the benchmark workloads.
    let footprint = |name: &str| programs.iter().find(|(n, _)| n == name).unwrap().1;
    assert_eq!(footprint("fir"), 7);
    assert_eq!(footprint("matrix_multiplication"), 21);
    assert_eq!(footprint("spmv"), 9);
}
