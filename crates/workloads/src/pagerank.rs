//! PageRank (Hetero-Mark): `PR-X` runs X nodes for a fixed number of
//! power iterations, two kernels per iteration.
//!
//! A real-world multi-kernel application: the same two kernels repeat
//! every iteration with identical shapes, which is exactly the
//! repetition kernel-sampling exploits (§4.3).

use crate::app::{App, LabeledLaunch};
use crate::helpers::{alloc_u32_slice, alloc_zeroed, guard_tid, rng, tid_and_offset, wg_count};
use gpu_isa::{CmpOp, Kernel, KernelBuilder, KernelLaunch, MemWidth, VAluOp, VectorSrc};
use gpu_sim::GpuSimulator;
use rand::Rng;

/// Damping factor.
pub const DAMPING: f32 = 0.85;

/// `contrib[i] = rank[i] / outdeg[i]`.
fn contrib_kernel() -> Kernel {
    let mut kb = KernelBuilder::new("pr_contrib");
    let s_rank = kb.sreg();
    let s_deg = kb.sreg();
    let s_contrib = kb.sreg();
    let s_n = kb.sreg();
    kb.load_arg(s_rank, 0);
    kb.load_arg(s_deg, 1);
    kb.load_arg(s_contrib, 2);
    kb.load_arg(s_n, 3);
    let (v_tid, v_off) = tid_and_offset(&mut kb);
    guard_tid(&mut kb, v_tid, s_n, |kb| {
        let v_r = kb.vreg();
        let v_d = kb.vreg();
        kb.global_load(v_r, s_rank, v_off, 0, MemWidth::B32);
        kb.global_load(v_d, s_deg, v_off, 0, MemWidth::B32);
        kb.valu(VAluOp::FDiv, v_r, VectorSrc::Reg(v_r), VectorSrc::Reg(v_d));
        kb.global_store(v_r, s_contrib, v_off, 0, MemWidth::B32);
    });
    Kernel::new(kb.finish().expect("contrib kernel is well-formed"))
}

/// `rank'[i] = (1-d)/N + d · Σ contrib[src]` over incoming edges (CSR).
fn gather_kernel() -> Kernel {
    let mut kb = KernelBuilder::new("pr_gather");
    let s_inptr = kb.sreg();
    let s_src = kb.sreg();
    let s_contrib = kb.sreg();
    let s_newrank = kb.sreg();
    let s_n = kb.sreg();
    let s_base = kb.sreg(); // (1-d)/N as f32 bits
    kb.load_arg(s_inptr, 0);
    kb.load_arg(s_src, 1);
    kb.load_arg(s_contrib, 2);
    kb.load_arg(s_newrank, 3);
    kb.load_arg(s_n, 4);
    kb.load_arg(s_base, 5);
    let (v_tid, v_off) = tid_and_offset(&mut kb);
    guard_tid(&mut kb, v_tid, s_n, |kb| {
        let v_j = kb.vreg();
        let v_end = kb.vreg();
        kb.global_load(v_j, s_inptr, v_off, 0, MemWidth::B32);
        kb.global_load(v_end, s_inptr, v_off, 4, MemWidth::B32);
        let v_acc = kb.vreg();
        kb.vmov(v_acc, VectorSrc::ImmF32(0.0));
        let v_joff = kb.vreg();
        let v_s = kb.vreg();
        let v_c = kb.vreg();
        kb.lane_while(
            |kb| {
                kb.vcmp(CmpOp::Lt, VectorSrc::Reg(v_j), VectorSrc::Reg(v_end), false);
            },
            |kb| {
                kb.valu(VAluOp::Shl, v_joff, VectorSrc::Reg(v_j), VectorSrc::Imm(2));
                kb.global_load(v_s, s_src, v_joff, 0, MemWidth::B32);
                kb.valu(VAluOp::Shl, v_s, VectorSrc::Reg(v_s), VectorSrc::Imm(2));
                kb.global_load(v_c, s_contrib, v_s, 0, MemWidth::B32);
                kb.valu(
                    VAluOp::FAdd,
                    v_acc,
                    VectorSrc::Reg(v_acc),
                    VectorSrc::Reg(v_c),
                );
                kb.valu(VAluOp::Add, v_j, VectorSrc::Reg(v_j), VectorSrc::Imm(1));
            },
        );
        // rank' = base + d * acc
        let v_base = kb.vreg();
        kb.vmov(v_base, VectorSrc::Sreg(s_base));
        kb.vfma(
            v_acc,
            VectorSrc::Reg(v_acc),
            VectorSrc::ImmF32(DAMPING),
            VectorSrc::Reg(v_base),
        );
        kb.global_store(v_acc, s_newrank, v_off, 0, MemWidth::B32);
    });
    Kernel::new(kb.finish().expect("gather kernel is well-formed"))
}

/// A random directed graph in incoming-edge CSR form.
#[derive(Debug, Clone)]
pub struct Graph {
    /// Incoming-edge row pointers (`n + 1`).
    pub in_ptr: Vec<u32>,
    /// Edge sources.
    pub src: Vec<u32>,
    /// Out-degree per node (≥ 1).
    pub out_deg: Vec<u32>,
    /// Node count.
    pub n: u32,
}

impl Graph {
    /// Generates a random graph with mean in-degree `avg_deg`.
    pub fn random(n: u32, avg_deg: u32, seed: u64) -> Self {
        let mut r = rng(seed);
        let mut in_ptr = vec![0u32];
        let mut src = Vec::new();
        let mut out_deg = vec![0u32; n as usize];
        for _ in 0..n {
            let u: f64 = r.gen();
            let deg = ((u * u) * (3.0 * avg_deg as f64)) as u32;
            for _ in 0..deg {
                let s = r.gen_range(0..n);
                src.push(s);
                out_deg[s as usize] += 1;
            }
            in_ptr.push(src.len() as u32);
        }
        for d in &mut out_deg {
            *d = (*d).max(1);
        }
        Graph {
            in_ptr,
            src,
            out_deg,
            n,
        }
    }
}

/// Builds `PR-<nodes>`: `iterations` power iterations over a random
/// graph with `nodes` nodes.
pub fn build(gpu: &mut GpuSimulator, nodes: u32, iterations: u32, seed: u64) -> App {
    let g = Graph::random(nodes, 12, seed);
    let n = nodes as u64;
    let in_ptr = alloc_u32_slice(gpu, &g.in_ptr);
    let src = alloc_u32_slice(gpu, &g.src);
    let deg = gpu.alloc_buffer(n * 4).expect("device allocation");
    for (i, d) in g.out_deg.iter().enumerate() {
        gpu.mem_mut().write_f32(deg + 4 * i as u64, *d as f32);
    }
    let rank_a = gpu.alloc_buffer(n * 4).expect("device allocation");
    let init = 1.0f32 / nodes as f32;
    for i in 0..n {
        gpu.mem_mut().write_f32(rank_a + 4 * i, init);
    }
    let rank_b = alloc_zeroed(gpu, n * 4);
    let contrib = alloc_zeroed(gpu, n * 4);

    let warps = n.div_ceil(64);
    let warps_per_wg = 4;
    let wgs = wg_count(warps, warps_per_wg);
    let base_bits = ((1.0 - DAMPING) / nodes as f32).to_bits() as u64;

    let ck = contrib_kernel();
    let gk = gather_kernel();
    let mut launches = Vec::new();
    let mut cur = rank_a;
    let mut nxt = rank_b;
    for it in 0..iterations {
        launches.push(LabeledLaunch {
            layer: format!("iter{it}"),
            launch: KernelLaunch::new(ck.clone(), wgs, warps_per_wg, vec![cur, deg, contrib, n]),
        });
        launches.push(LabeledLaunch {
            layer: format!("iter{it}"),
            launch: KernelLaunch::new(
                gk.clone(),
                wgs,
                warps_per_wg,
                vec![in_ptr, src, contrib, nxt, n, base_bits],
            ),
        });
        std::mem::swap(&mut cur, &mut nxt);
    }
    App::new(format!("PR-{nodes}"), launches)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{GpuConfig, NullController};

    #[test]
    fn ranks_stay_normalized_roughly() {
        let mut gpu = GpuSimulator::new(GpuConfig::tiny());
        let nodes = 256u32;
        let app = build(&mut gpu, nodes, 4, 9);
        app.run(&mut gpu, &mut NullController).unwrap();
        // final ranks live in the gather output of the last iteration
        let last = app.launches().last().unwrap();
        let out = last.launch.args[3];
        let ranks = gpu.mem().read_f32_vec(out, nodes as usize);
        let sum: f32 = ranks.iter().sum();
        assert!(ranks.iter().all(|r| *r >= 0.0));
        // PageRank mass stays near 1 (graph has dangling mass, allow slack)
        assert!(sum > 0.2 && sum < 1.5, "sum {sum}");
    }

    /// Every rank after three iterations against the kernels' own
    /// arithmetic on the host: one division per contribution, in-edge
    /// sums in CSR order, then `acc·d + (1−d)/N` with the multiply and
    /// the add rounded on their own. Equal to the last bit. 300 nodes
    /// leave the last warp partly idle.
    #[test]
    fn pagerank_matches_host_reference() {
        let (nodes, iterations, seed) = (300u32, 3, 9);
        let mut gpu = GpuSimulator::new(GpuConfig::tiny());
        let app = build(&mut gpu, nodes, iterations, seed);
        app.run(&mut gpu, &mut NullController).unwrap();
        let out = app.launches().last().unwrap().launch.args[3];
        let got = gpu.mem().read_f32_vec(out, nodes as usize);

        let g = Graph::random(nodes, 12, seed);
        let base = (1.0 - DAMPING) / nodes as f32;
        let mut rank = vec![1.0f32 / nodes as f32; nodes as usize];
        for _ in 0..iterations {
            let contrib: Vec<f32> = rank
                .iter()
                .zip(&g.out_deg)
                .map(|(r, &d)| r / d as f32)
                .collect();
            rank = g
                .in_ptr
                .windows(2)
                .map(|edges| {
                    let mut acc = 0.0f32;
                    for &s in &g.src[edges[0] as usize..edges[1] as usize] {
                        acc += contrib[s as usize];
                    }
                    acc * DAMPING + base
                })
                .collect();
        }
        for (i, (have, want)) in got.iter().zip(&rank).enumerate() {
            assert_eq!(
                have.to_bits(),
                want.to_bits(),
                "rank[{i}]: {have} vs {want}"
            );
        }
    }

    #[test]
    fn kernel_count_is_two_per_iteration() {
        let mut gpu = GpuSimulator::new(GpuConfig::tiny());
        let app = build(&mut gpu, 128, 10, 1);
        assert_eq!(app.launches().len(), 20);
        assert_eq!(app.name(), "PR-128");
    }
}
