//! Pins the tensor arena's central guarantee: after a short warmup, a full
//! forward + backward training step through the graph performs **zero** heap
//! allocations. Every activation, gradient, scratch buffer, tape node and
//! shape vector must come out of (and return to) the per-thread freelists.
//!
//! The test installs a counting `GlobalAlloc` wrapper, warms the arena with a
//! few steps, then asserts the allocation counter does not move across
//! subsequent steps. Any new `Vec` sneaking into the hot path shows up as a
//! nonzero delta with the step index that regressed. Allocations are
//! counted per thread, so the tests in this binary (and the harness thread
//! reporting them) cannot pollute each other's windows; every test runs its
//! kernels on one thread.
//!
//! Besides a small conv/layer-norm/linear step, two workloads shaped like
//! the actor–critic's conv trunk are pinned: a batch-of-one forward (the
//! rollout path, whose fc layer takes the unpacked skinny GEMM) and a
//! batch-of-100 forward + backward from a leaf input (the PPO minibatch
//! path: table-driven lowering, transposed-operand GEMMs, the transposed
//! weight gradient and the skipped leaf input gradient).
#![allow(unsafe_code)]
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use vc_nn::arena;
use vc_nn::graph::{Graph, NodeId};
use vc_nn::ops::conv::ConvCfg;
use vc_nn::ops::gemm::set_kernel_threads;
use vc_nn::param::{ParamId, ParamStore};
use vc_nn::tensor::Tensor;

/// Counts every `alloc`/`realloc` hitting the global allocator, per thread.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc() {
    // `try_with`: allocations during thread teardown are not counted.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

/// Allocations made by the calling thread so far.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

struct Model {
    store: ParamStore,
    conv_w: ParamId,
    conv_b: ParamId,
    gamma: ParamId,
    beta: ParamId,
    lin_w: ParamId,
    lin_b: ParamId,
    cfg: ConvCfg,
}

const BATCH: usize = 2;
const CH: usize = 3;
const HW: usize = 8;
const FEAT: usize = 8 * HW * HW; // conv keeps spatial dims (stride 1, pad 1)
const ACTIONS: usize = 9;

fn build_model() -> Model {
    let mut store = ParamStore::new();
    let cfg = ConvCfg { in_channels: CH, out_channels: 8, kernel: 3, stride: 1, padding: 1 };
    let kw: Vec<f32> = (0..8 * CH * 9).map(|i| ((i as f32 * 0.37).sin()) * 0.1).collect();
    let conv_w = store.add("conv.w", Tensor::from_vec(&[8, CH, 3, 3], kw));
    let conv_b = store.add("conv.b", Tensor::zeros(&[8]));
    let gamma = store.add("ln.gamma", Tensor::ones(&[FEAT]));
    let beta = store.add("ln.beta", Tensor::zeros(&[FEAT]));
    let lw: Vec<f32> = (0..FEAT * ACTIONS).map(|i| ((i as f32 * 0.13).cos()) * 0.05).collect();
    let lin_w = store.add("lin.w", Tensor::from_vec(&[FEAT, ACTIONS], lw));
    let lin_b = store.add("lin.b", Tensor::zeros(&[ACTIONS]));
    Model { store, conv_w, conv_b, gamma, beta, lin_w, lin_b, cfg }
}

/// One full training step: conv → layer-norm → relu → linear →
/// log-softmax → pick → mean loss, then backward + grad reset.
fn train_step(m: &mut Model, input: &[f32]) -> f32 {
    let mut g = Graph::new();
    let x = g.leaf(Tensor::from_slice(&[BATCH, CH, HW, HW], input));
    let w = g.param(&m.store, m.conv_w);
    let b = g.param(&m.store, m.conv_b);
    let y = g.conv2d(x, w, b, m.cfg);
    let yf = g.reshape(y, &[BATCH, FEAT]);
    let gamma = g.param(&m.store, m.gamma);
    let beta = g.param(&m.store, m.beta);
    let ln = g.layer_norm(yf, gamma, beta, 1e-5);
    let h = g.relu(ln);
    let lw = g.param(&m.store, m.lin_w);
    let lb = g.param(&m.store, m.lin_b);
    let logits = g.matmul(h, lw);
    let logits = g.add_row_broadcast(logits, lb);
    let lp = g.log_softmax(logits);
    // Action indices must also come from the arena — a `vec![..]` here
    // would be a per-step allocation of exactly the kind this test bans.
    let mut idx = arena::take_usize(BATCH);
    idx.extend_from_slice(&[1, 4]);
    let picked = g.pick_column(lp, idx);
    let mean = g.mean_all(picked);
    let loss = g.neg(mean);
    let l = g.backward(loss, &mut m.store);
    m.store.zero_grads();
    l
}

#[test]
fn steady_state_training_step_performs_zero_heap_allocations() {
    set_kernel_threads(1);
    let mut m = build_model();
    let input: Vec<f32> =
        (0..BATCH * CH * HW * HW).map(|i| ((i as f32 * 0.21).sin()) * 0.5).collect();

    // Warm the freelists: the first steps populate every buffer size class
    // the graph will ever request.
    let mut loss = 0.0;
    for _ in 0..5 {
        loss = train_step(&mut m, &input);
    }
    assert!(loss.is_finite(), "warmup produced non-finite loss {loss}");

    for step in 0..5 {
        let before = allocs();
        let l = train_step(&mut m, &input);
        let delta = allocs() - before;
        assert!(l.is_finite(), "step {step} produced non-finite loss {l}");
        assert_eq!(
            delta, 0,
            "steady-state step {step} hit the global allocator {delta} time(s); \
             some graph/kernel buffer is bypassing the arena"
        );
    }
}

/// The actor–critic conv trunk at the paper grid (3×16×16 state, three
/// conv + layer-norm + relu stages, fc 256→128, a 9-way head).
struct Trunk {
    store: ParamStore,
    convs: [(ParamId, ParamId, ConvCfg); 3],
    norms: [(ParamId, ParamId); 3],
    fc: (ParamId, ParamId),
    head: (ParamId, ParamId),
}

const GRID: usize = 16;
const STATE_LEN: usize = CH * GRID * GRID;

fn build_trunk() -> Trunk {
    let mut store = ParamStore::new();
    let mut fill = |name: &str, shape: &[usize], scale: f32| {
        let len = shape.iter().product::<usize>();
        let v = (0..len).map(|i| ((i as f32 * 0.37 + len as f32).sin()) * scale).collect();
        store.add(name, Tensor::from_vec(shape, v))
    };
    let cfgs = [
        ConvCfg { in_channels: CH, out_channels: 8, kernel: 3, stride: 2, padding: 1 },
        ConvCfg { in_channels: 8, out_channels: 16, kernel: 3, stride: 2, padding: 1 },
        ConvCfg { in_channels: 16, out_channels: 16, kernel: 3, stride: 1, padding: 1 },
    ];
    let convs = cfgs.map(|c| {
        let w = fill("conv.w", &[c.out_channels, c.in_channels, 3, 3], 0.2);
        let b = fill("conv.b", &[c.out_channels], 0.01);
        (w, b, c)
    });
    let norms = [8 * 8 * 8, 16 * 4 * 4, 16 * 4 * 4]
        .map(|f| (fill("ln.gamma", &[f], 0.1), fill("ln.beta", &[f], 0.01)));
    let fc = (fill("fc.w", &[256, 128], 0.05), fill("fc.b", &[128], 0.01));
    let head = (fill("head.w", &[128, ACTIONS], 0.05), fill("head.b", &[ACTIONS], 0.01));
    Trunk { store, convs, norms, fc, head }
}

/// Forward through the trunk from a `[B, 3, 16, 16]` leaf; returns the
/// head logits.
fn trunk_forward(t: &Trunk, g: &mut Graph, states: NodeId, bsz: usize) -> NodeId {
    let mut x = states;
    for ((w, b, cfg), (gamma, beta)) in t.convs.iter().zip(&t.norms) {
        let (wn, bn) = (g.param(&t.store, *w), g.param(&t.store, *b));
        let y = g.conv2d(x, wn, bn, *cfg);
        let (c, h_out, w) = (cfg.out_channels, g.shape(y)[2], g.shape(y)[3]);
        let flat = g.reshape(y, &[bsz, c * h_out * w]);
        let (gn, bt) = (g.param(&t.store, *gamma), g.param(&t.store, *beta));
        let ln = g.layer_norm(flat, gn, bt, 1e-5);
        let h = g.relu(ln);
        x = g.reshape(h, &[bsz, c, h_out, w]);
    }
    let x = g.reshape(x, &[bsz, 256]);
    let (fw, fb) = (g.param(&t.store, t.fc.0), g.param(&t.store, t.fc.1));
    let f = g.matmul(x, fw);
    let f = g.add_row_broadcast(f, fb);
    let f = g.relu(f);
    let (hw, hb) = (g.param(&t.store, t.head.0), g.param(&t.store, t.head.1));
    let logits = g.matmul(f, hw);
    g.add_row_broadcast(logits, hb)
}

/// Runs `step` five times to warm the arena, then five more asserting that
/// none of them allocates.
fn assert_steady_state_allocation_free(what: &str, mut step: impl FnMut() -> f32) {
    for _ in 0..5 {
        let v = step();
        assert!(v.is_finite(), "{what}: warmup produced non-finite {v}");
    }
    for i in 0..5 {
        let before = allocs();
        let v = step();
        let delta = allocs() - before;
        assert!(v.is_finite(), "{what}: step {i} produced non-finite {v}");
        assert_eq!(
            delta, 0,
            "{what}: steady-state step {i} hit the global allocator {delta} time(s)"
        );
    }
}

#[test]
fn steady_state_batch_of_one_trunk_forward_performs_zero_heap_allocations() {
    set_kernel_threads(1);
    let t = build_trunk();
    let state: Vec<f32> = (0..STATE_LEN).map(|i| ((i as f32 * 0.11).cos()) * 0.5).collect();
    assert_steady_state_allocation_free("B=1 trunk forward", || {
        let mut g = Graph::new();
        let s = g.leaf(Tensor::from_slice(&[1, CH, GRID, GRID], &state));
        let logits = trunk_forward(&t, &mut g, s, 1);
        g.value(logits).data()[0]
    });
}

#[test]
fn steady_state_ppo_minibatch_performs_zero_heap_allocations() {
    set_kernel_threads(1);
    const B: usize = 100;
    let mut t = build_trunk();
    let states: Vec<f32> = (0..B * STATE_LEN).map(|i| ((i as f32 * 0.07).sin()) * 0.5).collect();
    assert_steady_state_allocation_free("B=100 trunk forward + backward", || {
        let mut g = Graph::new();
        let s = g.leaf(Tensor::from_slice(&[B, CH, GRID, GRID], &states));
        let logits = trunk_forward(&t, &mut g, s, B);
        let lp = g.log_softmax(logits);
        let mut idx = arena::take_usize(B);
        idx.extend((0..B).map(|i| i % ACTIONS));
        let picked = g.pick_column(lp, idx);
        let mean = g.mean_all(picked);
        let loss = g.neg(mean);
        let l = g.backward(loss, &mut t.store);
        t.store.zero_grads();
        l
    });
}
