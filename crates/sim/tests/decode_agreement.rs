//! The pre-decoded program against the encoding it was decoded from.
//!
//! The interpreter and the shard read an instruction's class, its
//! `slow` flag and "does a basic block start here?" from
//! `Program::decoded()`; everything else in the repository (PKA's
//! feature counts, the controller's block map, the disassembler) still
//! derives them from the encoded `Inst`. For every kernel of every
//! registry application and every pc, the two must agree — and a
//! program that went through serde, which drops the cache, must decode
//! to the same table.

use gpu_isa::{Inst, Program, SAluOp, VAluOp};
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

    let json = serde_json::to_string(program).unwrap();
    let reloaded: Program = serde_json::from_str(&json).unwrap();
    assert_eq!(reloaded.decoded(), ops, "{app}/{}", program.name());
}

/// Checks every distinct program of `app`; returns how many there were.
fn check_app(app: &App) -> usize {
    let mut seen: Vec<*const Program> = Vec::new();
    for l in app.launches() {
        let program = l.launch.kernel.program();
        let id = std::sync::Arc::as_ptr(program);
        if !seen.contains(&id) {
            seen.push(id);
            check_program(app.name(), program);
        }
    }
    seen.len()
}

#[test]
fn decoded_table_agrees_with_the_encoding_on_every_registry_kernel() {
    let scale = DnnScale {
        input_hw: 32,
        channel_div: 32,
    };
    let mut programs = 0;
    for b in Benchmark::ALL {
        let mut gpu = GpuSimulator::new(GpuConfig::tiny());
        programs += check_app(&b.build(&mut gpu, 64, 1));
    }
    for a in RealWorldApp::figure16() {
        let a = match a {
            RealWorldApp::PageRank(_) => RealWorldApp::PageRank(256),
            dnn => dnn,
        };
        let mut gpu = GpuSimulator::new(GpuConfig::tiny());
        programs += check_app(&a.build(&mut gpu, scale, 1));
    }
    // Table 2's six kernels plus PageRank's and the DNN layer kernels.
    assert!(programs > 6 + 2 * 7, "only {programs} programs checked");
}
