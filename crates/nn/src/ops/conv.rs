//! 2-D convolution via a whole-batch im2col lowering, with an exact
//! backward pass.
//!
//! Layout conventions:
//! * input `x`: `[B, C_in, H, W]`
//! * weight `w`: `[C_out, C_in, KH, KW]`
//! * bias `b`: `[C_out]`
//! * output: `[B, C_out, HO, WO]`
//!
//! The forward pass lowers the *entire batch* to one column matrix
//! `[C_in*KH*KW, B*HO*WO]` (batch items side by side along the column axis)
//! and runs a single blocked GEMM against the weight viewed as
//! `[C_out, C_in*KH*KW]` — one GEMM per layer instead of one per batch
//! item, with no intermediate copies of the column buffer. The column
//! matrix is saved in the graph node so the backward pass is two more
//! whole-batch GEMMs plus a `col2im` scatter (one GEMM when the input
//! gradient is not needed).
//!
//! The fill and the scatter are driven by a per-call tap table mapping each
//! `(ky, kx, oy, ox)` to an input offset within one channel plane, with
//! padding taps marked out of range: the per-element work is one gather (or
//! one add), with no coordinate arithmetic or border branches.
//!
//! The im2col fill, the bias/scatter epilogue and the col2im scatter run
//! sequentially through [`crate::ops::gemm::par_items`]: the fills are
//! memory-bandwidth-bound, so the old per-call scoped threads cost more
//! than they saved, and routing them through the persistent kernel pool
//! would require copying the inputs (roughly the price of the fill itself).
//! The parallel GEMMs go through the pool; everything is bit-identical for
//! every thread count. All scratch buffers come from [`crate::arena`], so
//! steady-state conv layers allocate nothing.

use crate::arena;
use crate::ops::gemm;
use crate::tensor::Tensor;
use serde::{Deserialize, Serialize};

/// Static configuration of a convolution (shapes, stride, padding).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConvCfg {
    /// Input channels `C_in`.
    pub in_channels: usize,
    /// Output channels `C_out`.
    pub out_channels: usize,
    /// Square kernel side length `K`.
    pub kernel: usize,
    /// Stride along both spatial axes.
    pub stride: usize,
    /// Zero padding on every border.
    pub padding: usize,
}

impl ConvCfg {
    /// Output spatial size for an input spatial size, or `None` if the
    /// kernel does not fit.
    pub fn out_size(&self, input: usize) -> Option<usize> {
        let padded = input + 2 * self.padding;
        if padded < self.kernel {
            return None;
        }
        Some((padded - self.kernel) / self.stride + 1)
    }
}

/// Marks a padding tap in a [`TapTable`]: an offset no channel plane
/// contains, so the gather's bounds check doubles as the padding test.
const PAD: usize = usize::MAX;

/// The lowering's index table for one layer shape: for each kernel tap
/// `(ky, kx)` (row-major) and output position `(oy, ox)`, the offset of the
/// input element that tap reads within one `H×W` channel plane, or [`PAD`]
/// when it falls in the zero padding. Every channel and batch item shares
/// it, so it is built once per call (from the arena) and turns the im2col
/// fill and the col2im scatter into plain gathers and adds.
struct TapTable {
    offsets: Vec<usize>,
    /// Kernel taps `K·K`.
    taps: usize,
    /// Input channel-plane size `H·W`.
    plane: usize,
    /// Output positions `HO·WO`.
    n_spatial: usize,
}

impl TapTable {
    fn new(h: usize, w: usize, cfg: &ConvCfg, ho: usize, wo: usize) -> Self {
        let k = cfg.kernel;
        let mut offsets = arena::take_usize(k * k * ho * wo);
        // `Some(i)` when output index `o` with tap `t` reads input index `i`
        // along an axis of length `len`.
        let src = |o: usize, t: usize, len: usize| {
            (o * cfg.stride + t).checked_sub(cfg.padding).filter(|&i| i < len)
        };
        for ky in 0..k {
            for kx in 0..k {
                for oy in 0..ho {
                    let iy = src(oy, ky, h);
                    offsets.extend((0..wo).map(|ox| match (iy, src(ox, kx, w)) {
                        (Some(iy), Some(ix)) => iy * w + ix,
                        _ => PAD,
                    }));
                }
            }
        }
        Self { offsets, taps: k * k, plane: h * w, n_spatial: ho * wo }
    }

    /// The plane offsets read by kernel tap `tap`, one per output position.
    fn tap(&self, tap: usize) -> &[usize] {
        &self.offsets[tap * self.n_spatial..(tap + 1) * self.n_spatial]
    }
}

impl Drop for TapTable {
    fn drop(&mut self) {
        arena::put_usize(std::mem::take(&mut self.offsets));
    }
}

/// Lowers one batch item `[C, H, W]` (slice of length C*H*W) into a column
/// matrix `[C*K*K, HO*WO]` written into `cols`.
#[allow(clippy::too_many_arguments)] // mirrors the kernel's natural signature
pub fn im2col(
    x: &[f32],
    c: usize,
    h: usize,
    w: usize,
    cfg: &ConvCfg,
    ho: usize,
    wo: usize,
    cols: &mut [f32],
) {
    debug_assert_eq!(cols.len(), c * cfg.kernel * cfg.kernel * ho * wo);
    im2col_rows(x, c, &TapTable::new(h, w, cfg, ho, wo), 1, 0, cols);
}

/// Fills rows `row0..row0 + chunk.len()/(bsz*ho*wo)` of the *batched*
/// column matrix `[C*K*K, B*HO*WO]`. Each row is one `(channel, ky, kx)`
/// patch coordinate spanning every batch item: a gather from that item's
/// channel plane through the tap's offsets, padding taps reading zero.
fn im2col_rows(x: &[f32], c: usize, table: &TapTable, bsz: usize, row0: usize, chunk: &mut [f32]) {
    let (n_spatial, plane) = (table.n_spatial, table.plane);
    for (dr, row_out) in chunk.chunks_mut(bsz * n_spatial).enumerate() {
        let (ch, tap) = ((row0 + dr) / table.taps, (row0 + dr) % table.taps);
        debug_assert!(ch < c, "im2col row {} out of range", row0 + dr);
        let offsets = table.tap(tap);
        for (bi, dst) in row_out.chunks_mut(n_spatial).enumerate() {
            let src = &x[(bi * c + ch) * plane..(bi * c + ch + 1) * plane];
            for (d, &o) in dst.iter_mut().zip(offsets) {
                *d = src.get(o).copied().unwrap_or(0.0);
            }
        }
    }
}

/// Inverse of [`im2col`]: scatter-adds a column-matrix gradient back onto the
/// input gradient of one batch item.
#[allow(clippy::too_many_arguments)] // mirrors the kernel's natural signature
pub fn col2im(
    gcols: &[f32],
    c: usize,
    h: usize,
    w: usize,
    cfg: &ConvCfg,
    ho: usize,
    wo: usize,
    gx: &mut [f32],
) {
    debug_assert_eq!(gcols.len(), c * cfg.kernel * cfg.kernel * ho * wo);
    debug_assert_eq!(gx.len(), c * h * w);
    col2im_strided(gcols, ho * wo, 0, &TapTable::new(h, w, cfg, ho, wo), gx);
}

/// [`col2im`] over one batch item's column block inside a batched column
/// matrix: rows have stride `row_stride` and the item's columns start at
/// `col0`. Each input element receives its contributions in ascending
/// `(ky, kx)` order, the accumulation order `tests/conv_equivalence.rs`
/// pins against the per-element reference lowering.
fn col2im_strided(gcols: &[f32], row_stride: usize, col0: usize, table: &TapTable, gx: &mut [f32]) {
    let n_spatial = table.n_spatial;
    for (ch, gx_plane) in gx.chunks_exact_mut(table.plane).enumerate() {
        for tap in 0..table.taps {
            let base = (ch * table.taps + tap) * row_stride + col0;
            for (&o, &g) in table.tap(tap).iter().zip(&gcols[base..base + n_spatial]) {
                if let Some(d) = gx_plane.get_mut(o) {
                    *d += g;
                }
            }
        }
    }
}

/// Result of a convolution forward pass: output plus the saved column
/// matrix needed by the backward pass.
pub struct ConvForward {
    /// Convolution output, `[B, C_out, HO, WO]`.
    pub output: Tensor,
    /// The whole-batch column matrix, `[C_in*K*K, B*HO*WO]`.
    pub cols: Tensor,
}

/// Forward convolution. Panics on shape mismatches.
pub fn conv2d_forward(x: &Tensor, w: &Tensor, b: &Tensor, cfg: &ConvCfg) -> ConvForward {
    assert_eq!(x.ndim(), 4, "conv input must be [B,C,H,W]");
    let (bsz, c, h, wd) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
    assert_eq!(c, cfg.in_channels, "input channels mismatch");
    assert_eq!(
        w.shape(),
        &[cfg.out_channels, cfg.in_channels, cfg.kernel, cfg.kernel],
        "weight shape mismatch"
    );
    assert_eq!(b.shape(), &[cfg.out_channels], "bias shape mismatch");
    let out_size_or_panic = |input: usize| {
        cfg.out_size(input).unwrap_or_else(|| {
            panic!(
                "{}",
                crate::error::NnError::KernelTooLarge {
                    input,
                    kernel: cfg.kernel,
                    padding: cfg.padding,
                }
            )
        })
    };
    let ho = out_size_or_panic(h);
    let wo = out_size_or_panic(wd);
    let patch = c * cfg.kernel * cfg.kernel;
    let n_spatial = ho * wo;
    let cols_w = bsz * n_spatial;
    let threads = gemm::kernel_threads();

    // Lower the whole batch into one [patch, B*HO*WO] column matrix,
    // writing directly into the saved buffer (one row of patch coordinates
    // per parallel item).
    let table = TapTable::new(h, wd, cfg, ho, wo);
    let mut cols_all = arena::take_f32_zeroed(patch * cols_w);
    gemm::par_items(&mut cols_all, cols_w, patch, threads, |row0, chunk| {
        im2col_rows(x.data(), c, &table, bsz, row0, chunk);
    });

    // One GEMM for the whole batch: W [C_out, patch] · cols [patch, B*ns].
    // The weight tensor is already contiguous in that layout — no reshape
    // copy needed.
    let mut y = arena::take_f32_zeroed(cfg.out_channels * cols_w);
    gemm::gemm(w.data(), &cols_all, &mut y, cfg.out_channels, patch, cols_w, threads);

    // Scatter [C_out, B*ns] → [B, C_out, ns], adding the bias; parallel
    // over batch items.
    let item_len = cfg.out_channels * n_spatial;
    let mut out = arena::take_f32_zeroed(bsz * item_len);
    gemm::par_items(&mut out, item_len, bsz, threads, |bi0, chunk| {
        for (d, item) in chunk.chunks_mut(item_len).enumerate() {
            let bi = bi0 + d;
            for co in 0..cfg.out_channels {
                let src = &y[co * cols_w + bi * n_spatial..co * cols_w + (bi + 1) * n_spatial];
                let bias = b.data()[co];
                for (dst, &s) in item[co * n_spatial..(co + 1) * n_spatial].iter_mut().zip(src) {
                    *dst = s + bias;
                }
            }
        }
    });
    arena::put_f32(y);
    ConvForward {
        output: Tensor::from_vec(&[bsz, cfg.out_channels, ho, wo], out),
        cols: Tensor::from_vec(&[patch, cols_w], cols_all),
    }
}

/// Gradients of a convolution with respect to input, weight and bias.
pub struct ConvGrads {
    /// Gradient w.r.t. the input, when it was asked for.
    pub gx: Option<Tensor>,
    /// Gradient w.r.t. the weight.
    pub gw: Tensor,
    /// Gradient w.r.t. the bias.
    pub gb: Tensor,
}

/// Backward convolution given the upstream gradient `gout` (`[B,C_out,HO,WO]`),
/// the saved whole-batch column matrix, the weight, and the original input
/// shape. One whole-batch GEMM for the weight gradient and, when `need_gx`,
/// one more plus a `col2im` scatter for the input gradient — a network's
/// first layer reads a leaf nobody differentiates, and skips both.
///
/// The weight gradient is computed transposed, `dWᵀ = cols · goutᵀ`
/// (`[patch, C_out]`), so the large saved `cols` matrix is packed as it is
/// stored and only the small result is transposed. Each element is the same
/// ascending-`k` FMA chain as `gout · colsᵀ` with the two factors swapped,
/// and `fma(a, b, c) == fma(b, a, c)`, so the bits are unchanged.
pub fn conv2d_backward(
    gout: &Tensor,
    cols: &Tensor,
    w: &Tensor,
    x_shape: &[usize],
    cfg: &ConvCfg,
    need_gx: bool,
) -> ConvGrads {
    let (bsz, c, h, wd) = (x_shape[0], x_shape[1], x_shape[2], x_shape[3]);
    let ho = gout.shape()[2];
    let wo = gout.shape()[3];
    let patch = c * cfg.kernel * cfg.kernel;
    let n_spatial = ho * wo;
    let cols_w = bsz * n_spatial;
    debug_assert_eq!(cols.shape(), &[patch, cols_w], "saved column matrix shape");
    let threads = gemm::kernel_threads();

    // Rearrange gout [B, C_out, ns] → [C_out, B*ns] so the whole batch is
    // one GEMM operand; parallel over output-channel rows.
    let mut gout_r = arena::take_f32_zeroed(cfg.out_channels * cols_w);
    gemm::par_items(&mut gout_r, cols_w, cfg.out_channels, threads, |co0, chunk| {
        for (d, row) in chunk.chunks_mut(cols_w).enumerate() {
            let co = co0 + d;
            for (bi, dst) in row.chunks_mut(n_spatial).enumerate() {
                let src = bi * cfg.out_channels * n_spatial + co * n_spatial;
                dst.copy_from_slice(&gout.data()[src..src + n_spatial]);
            }
        }
    });

    // db = Σ_{batch, spatial} gout.
    let mut gb = Tensor::zeros(&[cfg.out_channels]);
    for (co, row) in gout_r.chunks_exact(cols_w).enumerate() {
        gb.data_mut()[co] = row.iter().sum::<f32>();
    }

    // dWᵀ = cols · gout_rᵀ — one whole-batch GEMM — then the [patch, C_out]
    // result is transposed into the weight's [C_out, patch] layout.
    let mut gw_t = arena::take_f32_zeroed(patch * cfg.out_channels);
    gemm::gemm_nt(cols.data(), &gout_r, &mut gw_t, patch, cols_w, cfg.out_channels, threads);
    let mut gw_mat = arena::take_f32(cfg.out_channels * patch);
    gemm::transpose_into(&gw_t, patch, cfg.out_channels, &mut gw_mat);
    arena::put_f32(gw_t);

    // dcols = Wᵀ · gout_r — one whole-batch GEMM, then scattered back onto
    // the input gradient item by item.
    let gx = need_gx.then(|| {
        let mut gcols = arena::take_f32_zeroed(patch * cols_w);
        gemm::gemm_tn(w.data(), &gout_r, &mut gcols, patch, cfg.out_channels, cols_w, threads);
        let table = TapTable::new(h, wd, cfg, ho, wo);
        let mut gx = Tensor::zeros(x_shape);
        let item_len = c * h * wd;
        gemm::par_items(gx.data_mut(), item_len, bsz, threads, |bi0, chunk| {
            for (d, gx_item) in chunk.chunks_mut(item_len).enumerate() {
                let col0 = (bi0 + d) * n_spatial;
                col2im_strided(&gcols, cols_w, col0, &table, gx_item);
            }
        });
        arena::put_f32(gcols);
        gx
    });
    arena::put_f32(gout_r);
    ConvGrads {
        gx,
        gw: Tensor::from_vec(&[cfg.out_channels, cfg.in_channels, cfg.kernel, cfg.kernel], gw_mat),
        gb,
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn cfg(cin: usize, cout: usize, k: usize, s: usize, p: usize) -> ConvCfg {
        ConvCfg { in_channels: cin, out_channels: cout, kernel: k, stride: s, padding: p }
    }

    #[test]
    fn out_size_matches_formula() {
        let c = cfg(1, 1, 3, 1, 1);
        assert_eq!(c.out_size(8), Some(8));
        let c2 = cfg(1, 1, 3, 2, 0);
        assert_eq!(c2.out_size(7), Some(3));
        let c3 = cfg(1, 1, 5, 1, 0);
        assert_eq!(c3.out_size(3), None);
    }

    #[test]
    fn identity_kernel_reproduces_input() {
        // A 1x1 kernel with weight 1 and bias 0 is the identity map.
        let c = cfg(1, 1, 1, 1, 0);
        let x = Tensor::from_vec(&[1, 1, 2, 2], vec![1., 2., 3., 4.]);
        let w = Tensor::ones(&[1, 1, 1, 1]);
        let b = Tensor::zeros(&[1]);
        let f = conv2d_forward(&x, &w, &b, &c);
        assert_eq!(f.output.data(), x.data());
    }

    #[test]
    fn averaging_kernel_known_value() {
        // 2x2 kernel of 0.25 over a 2x2 input with stride 2 = mean of input.
        let c = cfg(1, 1, 2, 2, 0);
        let x = Tensor::from_vec(&[1, 1, 2, 2], vec![1., 2., 3., 4.]);
        let w = Tensor::full(&[1, 1, 2, 2], 0.25);
        let b = Tensor::zeros(&[1]);
        let f = conv2d_forward(&x, &w, &b, &c);
        assert_eq!(f.output.shape(), &[1, 1, 1, 1]);
        assert!((f.output.item() - 2.5).abs() < 1e-6);
    }

    #[test]
    fn bias_is_added_per_channel() {
        let c = cfg(1, 2, 1, 1, 0);
        let x = Tensor::from_vec(&[1, 1, 1, 2], vec![1., 2.]);
        let w = Tensor::from_vec(&[2, 1, 1, 1], vec![1., 0.]);
        let b = Tensor::from_vec(&[2], vec![10., 20.]);
        let f = conv2d_forward(&x, &w, &b, &c);
        assert_eq!(f.output.data(), &[11., 12., 20., 20.]);
    }

    #[test]
    fn padding_zero_extends() {
        let c = cfg(1, 1, 3, 1, 1);
        let x = Tensor::ones(&[1, 1, 2, 2]);
        let w = Tensor::ones(&[1, 1, 3, 3]);
        let b = Tensor::zeros(&[1]);
        let f = conv2d_forward(&x, &w, &b, &c);
        // Each output sees the 4 ones minus those cut off by the border.
        assert_eq!(f.output.shape(), &[1, 1, 2, 2]);
        assert_eq!(f.output.data(), &[4., 4., 4., 4.]);
    }

    #[test]
    fn batched_forward_matches_per_item() {
        // Running a 3-item batch must equal running the items one at a time.
        let c = cfg(2, 3, 3, 1, 1);
        let (bsz, ch, h, w) = (3usize, 2usize, 5usize, 4usize);
        let x: Vec<f32> = (0..bsz * ch * h * w).map(|i| (i as f32 * 0.7).sin()).collect();
        let wt: Vec<f32> = (0..3 * 2 * 9).map(|i| (i as f32 * 1.3).cos()).collect();
        let wt = Tensor::from_vec(&[3, 2, 3, 3], wt);
        let bias = Tensor::from_vec(&[3], vec![0.1, -0.2, 0.3]);
        let batch = Tensor::from_vec(&[bsz, ch, h, w], x.clone());
        let full = conv2d_forward(&batch, &wt, &bias, &c);
        let item_out = full.output.numel() / bsz;
        for bi in 0..bsz {
            let item = Tensor::from_vec(
                &[1, ch, h, w],
                x[bi * ch * h * w..(bi + 1) * ch * h * w].to_vec(),
            );
            let single = conv2d_forward(&item, &wt, &bias, &c);
            assert_eq!(
                &full.output.data()[bi * item_out..(bi + 1) * item_out],
                single.output.data(),
                "batch item {bi} diverges from single-item conv"
            );
        }
    }

    #[test]
    fn im2col_col2im_are_adjoint() {
        // <im2col(x), y> == <x, col2im(y)> for random-ish x, y: the transpose
        // relationship that makes the backward pass exact.
        let c = cfg(2, 1, 3, 2, 1);
        let (ch, h, w) = (2usize, 5usize, 4usize);
        let ho = c.out_size(h).unwrap();
        let wo = c.out_size(w).unwrap();
        let patch = ch * 9;
        let x: Vec<f32> = (0..ch * h * w).map(|i| (i as f32 * 0.7).sin()).collect();
        let y: Vec<f32> = (0..patch * ho * wo).map(|i| (i as f32 * 1.3).cos()).collect();

        let mut cols = vec![0.0; patch * ho * wo];
        im2col(&x, ch, h, w, &c, ho, wo, &mut cols);
        let lhs: f32 = cols.iter().zip(&y).map(|(a, b)| a * b).sum();

        let mut gx = vec![0.0; ch * h * w];
        col2im(&y, ch, h, w, &c, ho, wo, &mut gx);
        let rhs: f32 = x.iter().zip(&gx).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "lhs {lhs} rhs {rhs}");
    }

    #[test]
    fn backward_matches_finite_difference() {
        let c = cfg(2, 3, 3, 1, 1);
        let xs = [2usize, 2, 4, 4];
        let mut seed = 0u32;
        let mut next = || {
            seed = seed.wrapping_mul(1664525).wrapping_add(1013904223);
            (seed >> 9) as f32 / (1u32 << 23) as f32 - 0.5
        };
        let x = Tensor::from_vec(&xs, (0..64).map(|_| next()).collect());
        let w = Tensor::from_vec(&[3, 2, 3, 3], (0..54).map(|_| next()).collect());
        let b = Tensor::from_vec(&[3], (0..3).map(|_| next()).collect());

        // Loss = sum of outputs, so gout = ones.
        let f = conv2d_forward(&x, &w, &b, &c);
        let gout = Tensor::ones(f.output.shape());
        let grads = conv2d_backward(&gout, &f.cols, &w, x.shape(), &c, true);
        let gx = grads.gx.as_ref().expect("input gradient was requested");

        let eps = 1e-2f32;
        // Check a sample of weight coordinates.
        for &i in &[0usize, 7, 20, 53] {
            let mut wp = w.clone();
            wp.data_mut()[i] += eps;
            let mut wm = w.clone();
            wm.data_mut()[i] -= eps;
            let fp = conv2d_forward(&x, &wp, &b, &c).output.sum();
            let fm = conv2d_forward(&x, &wm, &b, &c).output.sum();
            let num = (fp - fm) / (2.0 * eps);
            assert!(
                (num - grads.gw.data()[i]).abs() < 5e-2,
                "gw[{i}] numeric {num} analytic {}",
                grads.gw.data()[i]
            );
        }
        // Check a sample of input coordinates.
        for &i in &[0usize, 5, 17, 31, 40, 63] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let fp = conv2d_forward(&xp, &w, &b, &c).output.sum();
            let fm = conv2d_forward(&xm, &w, &b, &c).output.sum();
            let num = (fp - fm) / (2.0 * eps);
            assert!(
                (num - gx.data()[i]).abs() < 2e-2,
                "gx[{i}] numeric {num} analytic {}",
                gx.data()[i]
            );
        }
        // Bias gradient is exactly the number of output positions per
        // channel times the batch size.
        let n_spatial = (2 * f.output.shape()[2] * f.output.shape()[3]) as f32;
        for co in 0..3 {
            assert!((grads.gb.data()[co] - n_spatial).abs() < 1e-3);
        }
    }
}
