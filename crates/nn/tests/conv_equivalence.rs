//! Bit-exact equivalence of the table-driven convolution against the
//! per-element lowering it replaced.
//!
//! The oracle below is the original conv kernel, kept here as test support:
//! im2col and col2im compute every tap's input coordinates per element and
//! branch on the padding border, the weight gradient materializes `colsᵀ`
//! and multiplies `gout · colsᵀ`, and every product is [`matmul_naive`].
//! The production kernel builds a tap table once per call, computes the
//! weight gradient as `(cols · goutᵀ)ᵀ` and skips the input gradient when
//! nobody reads it. None of that may change a single output bit: each
//! output, `gw`, `gb` and `gx` element must be the same floating-point
//! value, checked here on the actor–critic trunk's three conv shapes at
//! B ∈ {1, 3, 100}, on odd shapes (stride 1/2, padding 0/1, non-square
//! inputs, 1×1 and 2×2 kernels) and at every kernel thread count.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use vc_nn::graph::{Graph, NodeId};
use vc_nn::ops::conv::{conv2d_backward, conv2d_forward, ConvCfg};
use vc_nn::ops::gemm::{
    kernel_counters, matmul_naive, set_kernel_telemetry, set_kernel_threads, transpose_into,
};
use vc_nn::param::{ParamId, ParamStore};
use vc_nn::tensor::Tensor;

use std::time::{Duration, Instant};

fn cfg(cin: usize, cout: usize, k: usize, s: usize, p: usize) -> ConvCfg {
    ConvCfg { in_channels: cin, out_channels: cout, kernel: k, stride: s, padding: p }
}

fn lcg(len: usize, mut state: u64) -> Vec<f32> {
    (0..len)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 40) as f32 / (1 << 24) as f32) - 0.5
        })
        .collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

// ------------------------------------------------------------------ oracle

/// The original per-element im2col over the whole batch: `[C*K*K, B*HO*WO]`.
fn oracle_im2col(x: &[f32], shape: [usize; 4], c: &ConvCfg, ho: usize, wo: usize) -> Vec<f32> {
    let [bsz, ch_n, h, w] = shape;
    let k = c.kernel;
    let ns = ho * wo;
    let mut cols = vec![0.0f32; ch_n * k * k * bsz * ns];
    for row in 0..ch_n * k * k {
        let (ch, ky, kx) = (row / (k * k), (row / k) % k, row % k);
        for bi in 0..bsz {
            let x_ch = &x[(bi * ch_n + ch) * h * w..(bi * ch_n + ch + 1) * h * w];
            for oy in 0..ho {
                let iy = (oy * c.stride + ky) as isize - c.padding as isize;
                for ox in 0..wo {
                    let ix = (ox * c.stride + kx) as isize - c.padding as isize;
                    let v = if iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize {
                        x_ch[iy as usize * w + ix as usize]
                    } else {
                        0.0
                    };
                    cols[row * bsz * ns + bi * ns + oy * wo + ox] = v;
                }
            }
        }
    }
    cols
}

/// The original per-element col2im: scatter-adds batch item `bi`'s columns
/// onto its input gradient in `(channel, ky, kx, oy, ox)` order.
fn oracle_col2im(gcols: &[f32], shape: [usize; 4], c: &ConvCfg, ho: usize, wo: usize) -> Vec<f32> {
    let [bsz, ch_n, h, w] = shape;
    let k = c.kernel;
    let ns = ho * wo;
    let mut gx = vec![0.0f32; bsz * ch_n * h * w];
    for bi in 0..bsz {
        for ch in 0..ch_n {
            for ky in 0..k {
                for kx in 0..k {
                    let base = ((ch * k + ky) * k + kx) * bsz * ns + bi * ns;
                    for oy in 0..ho {
                        let iy = (oy * c.stride + ky) as isize - c.padding as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for ox in 0..wo {
                            let ix = (ox * c.stride + kx) as isize - c.padding as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            gx[((bi * ch_n + ch) * h + iy as usize) * w + ix as usize] +=
                                gcols[base + oy * wo + ox];
                        }
                    }
                }
            }
        }
    }
    gx
}

struct Oracle {
    out: Vec<f32>,
    cols: Vec<f32>,
    gx: Vec<f32>,
    gw: Vec<f32>,
    gb: Vec<f32>,
}

/// The original forward and backward, with `matmul_naive` for every GEMM.
fn oracle(x: &[f32], shape: [usize; 4], w: &[f32], b: &[f32], gout: &[f32], c: &ConvCfg) -> Oracle {
    let [bsz, ch_n, h, wd] = shape;
    let (ho, wo) = (c.out_size(h).unwrap(), c.out_size(wd).unwrap());
    let (ns, co_n) = (ho * wo, c.out_channels);
    let patch = ch_n * c.kernel * c.kernel;
    let cols_w = bsz * ns;

    let cols = oracle_im2col(x, shape, c, ho, wo);
    let mut y = vec![0.0f32; co_n * cols_w];
    matmul_naive(w, &cols, &mut y, co_n, patch, cols_w);
    let mut out = vec![0.0f32; bsz * co_n * ns];
    for bi in 0..bsz {
        for co in 0..co_n {
            for s in 0..ns {
                out[(bi * co_n + co) * ns + s] = y[co * cols_w + bi * ns + s] + b[co];
            }
        }
    }

    let mut gout_r = vec![0.0f32; co_n * cols_w];
    for co in 0..co_n {
        for bi in 0..bsz {
            for s in 0..ns {
                gout_r[co * cols_w + bi * ns + s] = gout[(bi * co_n + co) * ns + s];
            }
        }
    }
    let gb: Vec<f32> = gout_r.chunks_exact(cols_w).map(|r| r.iter().sum::<f32>()).collect();
    let mut cols_t = Vec::new();
    transpose_into(&cols, patch, cols_w, &mut cols_t);
    let mut gw = vec![0.0f32; co_n * patch];
    matmul_naive(&gout_r, &cols_t, &mut gw, co_n, cols_w, patch);
    let mut w_t = Vec::new();
    transpose_into(w, co_n, patch, &mut w_t);
    let mut gcols = vec![0.0f32; patch * cols_w];
    matmul_naive(&w_t, &gout_r, &mut gcols, patch, co_n, cols_w);
    let gx = oracle_col2im(&gcols, shape, c, ho, wo);
    Oracle { out, cols, gx, gw, gb }
}

// ------------------------------------------------------------------ checks

fn check(c: ConvCfg, bsz: usize, h: usize, w: usize) {
    let shape = [bsz, c.in_channels, h, w];
    let (ho, wo) = (c.out_size(h).unwrap(), c.out_size(w).unwrap());
    let seed = (bsz * 1000 + h * 31 + w * 7 + c.stride * 3 + c.padding) as u64;
    let x = lcg(bsz * c.in_channels * h * w, seed);
    let wt = lcg(c.out_channels * c.in_channels * c.kernel * c.kernel, seed ^ 0xABCD);
    let bias = lcg(c.out_channels, seed ^ 0x1234);
    let gout = lcg(bsz * c.out_channels * ho * wo, seed ^ 0x9876);
    let want = oracle(&x, shape, &wt, &bias, &gout, &c);

    let xt = Tensor::from_vec(&shape, x);
    let wtt = Tensor::from_vec(&[c.out_channels, c.in_channels, c.kernel, c.kernel], wt);
    let bt = Tensor::from_vec(&[c.out_channels], bias);
    let gt = Tensor::from_vec(&[bsz, c.out_channels, ho, wo], gout);
    let what = format!("{c:?} B={bsz} {h}x{w}");
    for threads in [1usize, 2, 3] {
        set_kernel_threads(threads);
        let f = conv2d_forward(&xt, &wtt, &bt, &c);
        assert_eq!(bits(f.output.data()), bits(&want.out), "output, {what}, t{threads}");
        assert_eq!(bits(f.cols.data()), bits(&want.cols), "cols, {what}, t{threads}");
        for need_gx in [true, false] {
            let g = conv2d_backward(&gt, &f.cols, &wtt, xt.shape(), &c, need_gx);
            assert_eq!(bits(g.gw.data()), bits(&want.gw), "gw, {what}, t{threads}");
            assert_eq!(bits(g.gb.data()), bits(&want.gb), "gb, {what}, t{threads}");
            match g.gx {
                Some(gx) => {
                    assert!(need_gx, "gx computed although not requested, {what}");
                    assert_eq!(bits(gx.data()), bits(&want.gx), "gx, {what}, t{threads}");
                }
                None => assert!(!need_gx, "gx missing although requested, {what}"),
            }
        }
    }
    set_kernel_threads(1);
}

#[test]
fn trunk_conv1_matches_oracle_bitwise() {
    for bsz in [1, 3, 100] {
        check(cfg(3, 8, 3, 2, 1), bsz, 16, 16);
    }
}

#[test]
fn trunk_conv2_matches_oracle_bitwise() {
    for bsz in [1, 3, 100] {
        check(cfg(8, 16, 3, 2, 1), bsz, 8, 8);
    }
}

#[test]
fn trunk_conv3_matches_oracle_bitwise() {
    for bsz in [1, 3, 100] {
        check(cfg(16, 16, 3, 1, 1), bsz, 4, 4);
    }
}

#[test]
fn odd_shapes_match_oracle_bitwise() {
    for &(c, bsz, h, w) in &[
        (cfg(2, 5, 3, 2, 0), 3, 7, 5),   // stride 2, no padding, non-square
        (cfg(3, 4, 3, 1, 0), 2, 6, 9),   // stride 1, no padding
        (cfg(1, 3, 3, 2, 1), 2, 9, 4),   // stride 2, padding, odd sizes
        (cfg(4, 2, 2, 1, 1), 3, 5, 6),   // even kernel with padding
        (cfg(3, 7, 1, 1, 0), 2, 3, 8),   // 1×1 kernel
        (cfg(2, 3, 5, 1, 1), 1, 3, 4),   // kernel wider than the input
        (cfg(5, 17, 3, 1, 1), 2, 11, 7), // C_out crosses the NR=16 tail
    ] {
        check(c, bsz, h, w);
    }
}

/// The graph `loss = Σ conv(x)·r` with `x` a leaf.
struct LeafConv {
    g: Graph,
    x: NodeId,
    y: NodeId,
    loss: NodeId,
}

fn leaf_conv_graph(
    store: &ParamStore,
    params: (ParamId, ParamId),
    c: ConvCfg,
    shape: [usize; 4],
    x: &[f32],
    r: &[f32],
) -> LeafConv {
    let mut g = Graph::new();
    let xn = g.leaf(Tensor::from_slice(&shape, x));
    let wn = g.param(store, params.0);
    let bn = g.param(store, params.1);
    let y = g.conv2d(xn, wn, bn, c);
    let rn = g.leaf(Tensor::from_slice(g.value(y).shape(), r));
    let weighted = g.mul(y, rn);
    let loss = g.sum_all(weighted);
    LeafConv { g, x: xn, y, loss }
}

#[test]
fn graph_skips_the_leaf_input_gradient_but_grad_of_still_gets_it() {
    set_kernel_threads(1);
    let c = cfg(3, 8, 3, 2, 1);
    let shape = [4, 3, 16, 16];
    let (ho, wo) = (8, 8);
    let x = lcg(4 * 3 * 16 * 16, 11);
    let wt = lcg(8 * 27, 12);
    let bias = lcg(8, 13);
    let r = lcg(4 * 8 * ho * wo, 14);
    // d(Σ y·r)/dy = 1·r exactly, so the oracle's upstream gradient is `r`.
    let want = oracle(&x, shape, &wt, &bias, &r, &c);

    let mut store = ParamStore::new();
    let w = store.add("conv.w", Tensor::from_vec(&[8, 3, 3, 3], wt));
    let b = store.add("conv.b", Tensor::from_vec(&[8], bias));

    // `backward`: the state leaf is not differentiated, so the conv runs
    // its weight-gradient GEMM only. The GEMM counters are process-wide
    // and other tests in this binary run concurrently, which can only add
    // calls: the minimum over repeated trials is this graph's own count.
    // Trials continue until the minima reach the expected counts (other
    // tests finish within seconds) or a deadline passes, so a graph that
    // runs extra GEMMs still fails.
    let LeafConv { g, x: xn, y, loss } = leaf_conv_graph(&store, (w, b), c, shape, &x, &r);
    assert_eq!(bits(g.value(y).data()), bits(&want.out), "graph conv output");
    set_kernel_telemetry(true);
    let mut backward_calls = u64::MAX;
    let mut grad_of_calls = u64::MAX;
    let mut gx = None;
    let deadline = Instant::now() + Duration::from_secs(60);
    while (backward_calls > 1 || grad_of_calls > 2) && Instant::now() < deadline {
        store.zero_grads();
        let before = kernel_counters().gemm_calls;
        g.backward(loss, &mut store);
        backward_calls = backward_calls.min(kernel_counters().gemm_calls - before);
        let before = kernel_counters().gemm_calls;
        gx = g.grad_of(loss, xn);
        grad_of_calls = grad_of_calls.min(kernel_counters().gemm_calls - before);
        std::thread::yield_now();
    }
    set_kernel_telemetry(false);
    assert_eq!(backward_calls, 1, "backward must run only the conv's weight-gradient GEMM");
    assert_eq!(grad_of_calls, 2, "grad_of must also run the input-gradient GEMM");

    assert_eq!(bits(store.grad(w).data()), bits(&want.gw), "graph gw");
    assert_eq!(bits(store.grad(b).data()), bits(&want.gb), "graph gb");
    let gx = gx.expect("grad_of must reach the leaf input");
    assert_eq!(bits(gx.data()), bits(&want.gx), "grad_of(loss, states) differs from the oracle gx");
}
