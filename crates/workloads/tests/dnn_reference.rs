//! Host-reference numerical checks for the DNN layer kernels: direct
//! convolution, max pooling, dense, and global average pooling computed
//! on the CPU must match the simulated GPU results element-wise.

use gpu_sim::{GpuConfig, GpuSimulator, NullController};
use gpu_workloads::dnn::{NetBuilder, Shape};

fn read_tensor(gpu: &GpuSimulator, buf: u64, len: usize) -> Vec<f32> {
    gpu.mem().read_f32_vec(buf, len)
}

#[test]
fn conv2d_matches_host_reference() {
    let mut gpu = GpuSimulator::new(GpuConfig::tiny());
    let in_shape = Shape { c: 3, h: 6, w: 6 };
    let mut nb = NetBuilder::new(&mut gpu, in_shape, 42);
    let input_cp = nb.checkpoint();
    nb.conv("c", 4, 3, 1, 1, false);
    let out_cp = nb.checkpoint();
    let app = nb.finish("conv_test");
    app.run(&mut gpu, &mut NullController).unwrap();

    // conv launch args: [padded, weights, out, in_c, ph, pw, ohw, ow, k, stride, relu, n]
    let conv_launch = &app.launches()[1].launch;
    let weights_buf = conv_launch.args[1];
    let (in_c, k, stride, pad) = (3u32, 3u32, 1u32, 1u32);
    let out_c = 4u32;
    let (oh, ow) = (6u32, 6u32);

    let input = read_tensor(&gpu, input_cp.buf, in_shape.len() as usize);
    let weights = read_tensor(&gpu, weights_buf, (out_c * in_c * k * k) as usize);
    let got = read_tensor(&gpu, out_cp.buf, (out_c * oh * ow) as usize);

    let at = |c: u32, y: i64, x: i64| -> f32 {
        if y < 0 || x < 0 || y >= in_shape.h as i64 || x >= in_shape.w as i64 {
            0.0
        } else {
            input
                [(c as usize * in_shape.h as usize + y as usize) * in_shape.w as usize + x as usize]
        }
    };
    for oc in 0..out_c {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = 0.0f32;
                for ic in 0..in_c {
                    for ky in 0..k {
                        for kx in 0..k {
                            let iy = (oy * stride + ky) as i64 - pad as i64;
                            let ix = (ox * stride + kx) as i64 - pad as i64;
                            let w = weights[(((oc * in_c + ic) * k + ky) * k + kx) as usize];
                            acc = at(ic, iy, ix).mul_add(w, acc);
                        }
                    }
                }
                let g = got[((oc * oh + oy) * ow + ox) as usize];
                assert!(
                    (g - acc).abs() < 1e-3,
                    "out[{oc},{oy},{ox}] = {g}, expected {acc}"
                );
            }
        }
    }
}

/// Four whole warps of output, each input load full-EXEC but neither
/// unit-stride nor one address (rows of eight words, 40 bytes apart),
/// each weight load one address per warp — against the kernel's own
/// arithmetic on the host: products summed in `(ic, ky, kx)` order,
/// each multiply and add rounded on its own. Equal to the last bit.
#[test]
fn wide_conv2d_matches_host_reference() {
    let mut gpu = GpuSimulator::new(GpuConfig::tiny());
    let in_shape = Shape { c: 3, h: 8, w: 8 };
    let mut nb = NetBuilder::new(&mut gpu, in_shape, 17);
    let input_cp = nb.checkpoint();
    nb.conv("c", 4, 3, 1, 1, false);
    let out_cp = nb.checkpoint();
    let app = nb.finish("wide_conv_test");
    app.run(&mut gpu, &mut NullController).unwrap();

    let (in_c, out_c, k, hw) = (3usize, 4usize, 3usize, 8usize);
    let input = read_tensor(&gpu, input_cp.buf, in_shape.len() as usize);
    let weights = read_tensor(&gpu, app.launches()[1].launch.args[1], out_c * in_c * k * k);
    let got = read_tensor(&gpu, out_cp.buf, out_c * hw * hw);
    let at = |c: usize, y: usize, x: usize| -> f32 {
        // padded by one on every side
        if y == 0 || x == 0 || y > hw || x > hw {
            0.0
        } else {
            input[(c * hw + y - 1) * hw + x - 1]
        }
    };
    for oc in 0..out_c {
        for oy in 0..hw {
            for ox in 0..hw {
                let mut acc = 0.0f32;
                for ic in 0..in_c {
                    for ky in 0..k {
                        for kx in 0..k {
                            let w = weights[((oc * in_c + ic) * k + ky) * k + kx];
                            acc += at(ic, oy + ky, ox + kx) * w;
                        }
                    }
                }
                assert_eq!(got[(oc * hw + oy) * hw + ox], acc, "out[{oc},{oy},{ox}]");
            }
        }
    }
}

#[test]
fn maxpool_matches_host_reference() {
    let mut gpu = GpuSimulator::new(GpuConfig::tiny());
    let in_shape = Shape { c: 2, h: 8, w: 8 };
    let mut nb = NetBuilder::new(&mut gpu, in_shape, 7);
    let input_cp = nb.checkpoint();
    nb.maxpool("p", 2, 2, 0);
    let out_cp = nb.checkpoint();
    let app = nb.finish("pool_test");
    app.run(&mut gpu, &mut NullController).unwrap();

    let input = read_tensor(&gpu, input_cp.buf, in_shape.len() as usize);
    let got = read_tensor(&gpu, out_cp.buf, (2 * 4 * 4) as usize);
    for c in 0..2usize {
        for oy in 0..4usize {
            for ox in 0..4usize {
                let mut m = f32::NEG_INFINITY;
                for ky in 0..2 {
                    for kx in 0..2 {
                        m = m.max(input[(c * 8 + oy * 2 + ky) * 8 + ox * 2 + kx]);
                    }
                }
                let g = got[(c * 4 + oy) * 4 + ox];
                assert_eq!(g, m, "pool[{c},{oy},{ox}]");
            }
        }
    }
}

#[test]
fn dense_matches_host_reference() {
    let mut gpu = GpuSimulator::new(GpuConfig::tiny());
    let in_shape = Shape { c: 8, h: 1, w: 1 };
    let mut nb = NetBuilder::new(&mut gpu, in_shape, 3);
    let input_cp = nb.checkpoint();
    nb.dense("fc", 5, false);
    let out_cp = nb.checkpoint();
    let app = nb.finish("dense_test");
    app.run(&mut gpu, &mut NullController).unwrap();

    let w_buf = app.launches()[0].launch.args[1];
    let x = read_tensor(&gpu, input_cp.buf, 8);
    let w = read_tensor(&gpu, w_buf, 5 * 8);
    let got = read_tensor(&gpu, out_cp.buf, 5);
    for of in 0..5usize {
        let mut acc = 0.0f32;
        for i in 0..8usize {
            acc = x[i].mul_add(w[of * 8 + i], acc);
        }
        assert!(
            (got[of] - acc).abs() < 1e-4,
            "fc[{of}] = {}, expected {acc}",
            got[of]
        );
    }
}

/// A dense layer two whole warps wide (and a partial third): every
/// input load one address for all lanes, every weight load strided by
/// the 12-element input — against the kernel's own arithmetic on the
/// host, products summed in input order with each multiply and add
/// rounded on its own. Equal to the last bit.
#[test]
fn wide_dense_matches_host_reference() {
    let mut gpu = GpuSimulator::new(GpuConfig::tiny());
    let in_shape = Shape { c: 3, h: 2, w: 2 };
    let mut nb = NetBuilder::new(&mut gpu, in_shape, 13);
    let input_cp = nb.checkpoint();
    nb.dense("fc", 150, false);
    let out_cp = nb.checkpoint();
    let app = nb.finish("wide_dense_test");
    app.run(&mut gpu, &mut NullController).unwrap();

    let (in_f, out_f) = (12usize, 150usize);
    let x = read_tensor(&gpu, input_cp.buf, in_f);
    let w = read_tensor(&gpu, app.launches()[0].launch.args[1], out_f * in_f);
    let got = read_tensor(&gpu, out_cp.buf, out_f);
    for of in 0..out_f {
        let mut acc = 0.0f32;
        for i in 0..in_f {
            acc += x[i] * w[of * in_f + i];
        }
        assert_eq!(got[of], acc, "fc[{of}]");
    }
}

#[test]
fn global_avg_pool_matches_host_reference() {
    let mut gpu = GpuSimulator::new(GpuConfig::tiny());
    let in_shape = Shape { c: 3, h: 4, w: 4 };
    let mut nb = NetBuilder::new(&mut gpu, in_shape, 11);
    let input_cp = nb.checkpoint();
    nb.global_avg_pool("gap");
    let out_cp = nb.checkpoint();
    let app = nb.finish("gap_test");
    app.run(&mut gpu, &mut NullController).unwrap();

    let input = read_tensor(&gpu, input_cp.buf, in_shape.len() as usize);
    let got = read_tensor(&gpu, out_cp.buf, 3);
    for c in 0..3usize {
        let mean: f32 = input[c * 16..(c + 1) * 16].iter().sum::<f32>() / 16.0;
        assert!(
            (got[c] - mean).abs() < 1e-4,
            "gap[{c}] = {}, expected {mean}",
            got[c]
        );
    }
}

#[test]
fn strided_conv_downsamples_correctly() {
    let mut gpu = GpuSimulator::new(GpuConfig::tiny());
    let mut nb = NetBuilder::new(&mut gpu, Shape { c: 2, h: 8, w: 8 }, 5);
    nb.conv("c", 2, 3, 2, 1, false);
    assert_eq!(nb.shape(), Shape { c: 2, h: 4, w: 4 });
    let out_cp = nb.checkpoint();
    let app = nb.finish("stride_test");
    app.run(&mut gpu, &mut NullController).unwrap();
    let got = read_tensor(&gpu, out_cp.buf, 32);
    assert!(got.iter().all(|v| v.is_finite()));
    assert!(got.iter().any(|v| *v != 0.0));
}
