//! Proximal policy optimization (Section IV, Eqns 8/11/12).
//!
//! [`compute_ppo_grads`] builds the clipped-surrogate + value + entropy loss
//! for one minibatch and backpropagates it into the parameter store —
//! *without* stepping the optimizer. In the chief–employee architecture the
//! employees call this and ship the accumulated gradients to the chief,
//! which owns the only optimizer (Algorithms 1–2).

use crate::buffer::RolloutBuffer;
use crate::gae::{discounted_returns, gae_advantages, normalize_advantages};
use crate::net::{ActorCritic, CHARGE_CHOICES, MOVES_PER_WORKER};
use serde::{Deserialize, Serialize};
use vc_nn::prelude::*;

/// PPO hyperparameters.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct PpoConfig {
    /// Discount factor γ.
    pub gamma: f32,
    /// GAE-λ.
    pub lambda: f32,
    /// Clip radius ε of Eqn (8).
    pub clip_eps: f32,
    /// Update rounds per episode, K (Algorithm 1, line 17).
    pub epochs: usize,
    /// Minibatch size (the "updating batch size" of Table II).
    pub minibatch: usize,
    /// Value-loss coefficient.
    pub vf_coef: f32,
    /// Entropy-bonus coefficient.
    pub ent_coef: f32,
    /// Adam learning rate (used by the chief).
    pub lr: f32,
    /// Global gradient-norm clip.
    pub max_grad_norm: f32,
    /// Per-batch advantage normalization (the DPPO trick, also used here).
    pub normalize_adv: bool,
    /// PPO2-style value clipping: bound the value update to `clip_eps`
    /// around the rollout-time estimate, taking the worse (max) of the
    /// clipped and unclipped squared errors.
    pub clip_value: bool,
}

impl Default for PpoConfig {
    fn default() -> Self {
        Self {
            gamma: 0.98,
            lambda: 0.95,
            clip_eps: 0.2,
            epochs: 4,
            minibatch: 250,
            vf_coef: 0.5,
            ent_coef: 0.02,
            lr: 3e-4,
            max_grad_norm: 0.5,
            normalize_adv: true,
            clip_value: false,
        }
    }
}

/// Diagnostics from one minibatch gradient computation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct PpoStats {
    /// Clipped-surrogate objective value (higher is better).
    pub policy_objective: f32,
    /// Mean squared value error.
    pub value_loss: f32,
    /// Mean joint entropy of the two heads.
    pub entropy: f32,
    /// Mean `old_logp − new_logp` (a cheap KL proxy).
    pub approx_kl: f32,
}

/// Computes returns and (optionally normalized) advantages for a finished
/// episode and installs them into the buffer. `v_last` bootstraps Eqn (11).
pub fn finish_rollout(buffer: &mut RolloutBuffer, cfg: &PpoConfig, v_last: f32) {
    let rewards = buffer.rewards();
    let values = buffer.values();
    let returns = discounted_returns(&rewards, cfg.gamma, v_last);
    let mut adv = gae_advantages(&rewards, &values, cfg.gamma, cfg.lambda, v_last);
    if cfg.normalize_adv {
        normalize_advantages(&mut adv);
    }
    buffer.set_targets(returns, adv);
}

/// Builds the PPO loss over the transitions selected by `indices`,
/// backpropagates into `store`, and returns diagnostics.
pub fn compute_ppo_grads(
    net: &ActorCritic,
    store: &mut ParamStore,
    buffer: &RolloutBuffer,
    indices: &[usize],
    cfg: &PpoConfig,
) -> PpoStats {
    assert!(buffer.has_targets(), "finish_rollout must run before updates");
    assert!(!indices.is_empty(), "empty minibatch");
    let b = indices.len();
    let w = net.config().num_workers;
    let state_len = buffer.transitions()[0].state.len();

    // Assemble minibatch tensors. Buffers come from the tensor arena so the
    // per-update epoch loop recycles them instead of re-allocating: the f32
    // buffers return when their tensors drop, and the index vectors are
    // recycled by the graph when the `PickColumn` nodes retire.
    let mut states = vc_nn::arena::take_f32(b * state_len);
    let mut flat_moves = vc_nn::arena::take_usize(b * w);
    let mut flat_charges = vc_nn::arena::take_usize(b * w);
    let mut move_mask = vc_nn::arena::take_f32(b * w * MOVES_PER_WORKER);
    let mut charge_mask = vc_nn::arena::take_f32(b * w * CHARGE_CHOICES);
    let mut old_logp = vc_nn::arena::take_f32(b);
    let mut adv = vc_nn::arena::take_f32(b);
    let mut rets = vc_nn::arena::take_f32(b);
    let mut old_values = vc_nn::arena::take_f32(b);
    for &i in indices {
        let t = &buffer.transitions()[i];
        states.extend_from_slice(&t.state);
        flat_moves.extend_from_slice(&t.moves);
        flat_charges.extend_from_slice(&t.charges);
        move_mask.extend(t.move_mask.iter().map(|&ok| if ok { 0.0f32 } else { -1e9 }));
        charge_mask.extend(t.charge_mask.iter().map(|&ok| if ok { 0.0f32 } else { -1e9 }));
        old_logp.push(t.logp);
        adv.push(buffer.adv(i));
        rets.push(buffer.ret(i));
        old_values.push(t.value);
    }

    let net_cfg = *net.config();
    let mut g = Graph::new();
    let s = g.leaf(Tensor::from_vec(&[b, net_cfg.in_channels, net_cfg.grid, net_cfg.grid], states));
    let out = net.forward(&mut g, store, s);

    // Re-apply the sampling-time validity masks so the new log-probabilities
    // describe the same (masked) distributions the behavior policy used.
    let mm = g.leaf(Tensor::from_vec(&[b * w, MOVES_PER_WORKER], move_mask));
    let cm = g.leaf(Tensor::from_vec(&[b * w, CHARGE_CHOICES], charge_mask));
    let masked_move_logits = g.add(out.move_logits, mm);
    let masked_charge_logits = g.add(out.charge_logits, cm);

    // Joint new log-probability per step: sum the per-worker move and charge
    // log-probs ([B·W, 1] → [B, W] → row-sum).
    let lsm = g.log_softmax(masked_move_logits);
    let lpm = g.pick_column(lsm, flat_moves);
    let lsc = g.log_softmax(masked_charge_logits);
    let lpc = g.pick_column(lsc, flat_charges);
    let joint = g.add(lpm, lpc); // [B·W, 1]
    let per_step = g.reshape(joint, &[b, w]);
    let mean_w = g.mean_rows(per_step); // [B, 1]
    let new_logp = g.scale(mean_w, w as f32); // row sums

    // Probability ratio ζ and the clipped surrogate (Eqn 12).
    let old = g.leaf(Tensor::from_slice(&[b, 1], &old_logp));
    let diff = g.sub(new_logp, old);
    let ratio = g.exp(diff);
    let adv_node = g.leaf(Tensor::from_vec(&[b, 1], adv));
    let unclipped = g.mul(ratio, adv_node);
    let clipped_ratio = g.clamp(ratio, 1.0 - cfg.clip_eps, 1.0 + cfg.clip_eps);
    let clipped = g.mul(clipped_ratio, adv_node);
    let surrogate = g.min_elem(unclipped, clipped);
    let objective = g.mean_all(surrogate);

    // Value loss (Eqn 11), optionally PPO2-clipped around the rollout-time
    // value estimate.
    let ret_node = g.leaf(Tensor::from_vec(&[b, 1], rets));
    let vdiff = g.sub(out.value, ret_node);
    let vsq = g.square(vdiff);
    let value_loss = if cfg.clip_value {
        // v_clip = v_old + clamp(v - v_old, ±ε); loss = max(sq, sq_clip).
        let v_old = g.leaf(Tensor::from_vec(&[b, 1], old_values));
        let dv = g.sub(out.value, v_old);
        let dv_clipped = g.clamp(dv, -cfg.clip_eps, cfg.clip_eps);
        let v_clipped = g.add(v_old, dv_clipped);
        let vdiff_c = g.sub(v_clipped, ret_node);
        let vsq_c = g.square(vdiff_c);
        let worst = g.max_elem(vsq, vsq_c);
        g.mean_all(worst)
    } else {
        g.mean_all(vsq)
    };

    // Entropy bonus over both heads (on the masked distributions — masked
    // actions contribute p·log p → 0). mean_all over [rows, A] of p·log p is
    // (Σ p·log p) / (rows·A); scaling by −A yields the mean per-row entropy.
    let pm = g.softmax(masked_move_logits);
    let lsm2 = g.log_softmax(masked_move_logits);
    let plm = g.mul(pm, lsm2);
    let em = g.mean_all(plm);
    let ent_move = g.scale(em, -(MOVES_PER_WORKER as f32));
    let pc = g.softmax(masked_charge_logits);
    let lsc2 = g.log_softmax(masked_charge_logits);
    let plc = g.mul(pc, lsc2);
    let ec = g.mean_all(plc);
    let ent_charge = g.scale(ec, -(CHARGE_CHOICES as f32));
    let entropy = g.add(ent_move, ent_charge);

    // loss = −J + c_v·L_v − c_e·H
    let neg_obj = g.scale(objective, -1.0);
    let v_term = g.scale(value_loss, cfg.vf_coef);
    let e_term = g.scale(entropy, -cfg.ent_coef);
    let partial = g.add(neg_obj, v_term);
    let loss = g.add(partial, e_term);

    g.backward(loss, store);

    let new_vals = g.value(ratio);
    let approx_kl = old_logp
        .iter()
        .zip(new_vals.data())
        .map(|(_, &r)| {
            // KL(old‖new) ≈ (r − 1) − ln r for ratio r = new/old prob.
            (r - 1.0) - r.max(1e-12).ln()
        })
        .sum::<f32>()
        / b as f32;
    vc_nn::arena::put_f32(old_logp);

    PpoStats {
        policy_objective: g.value(objective).item(),
        value_loss: g.value(value_loss).item(),
        entropy: g.value(entropy).item(),
        approx_kl,
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::buffer::Transition;
    use crate::net::NetConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use vc_nn::optim::{Adam, Optimizer};

    fn build_net(grid: usize, workers: usize, seed: u64) -> (ParamStore, ActorCritic) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let net = ActorCritic::new(&mut store, NetConfig::for_scenario(grid, workers), &mut rng);
        (store, net)
    }

    /// A synthetic buffer where move 3 always earns reward 1 and everything
    /// else earns 0.
    fn synthetic_buffer(n: usize, state_len: usize, rng: &mut StdRng) -> RolloutBuffer {
        use rand::Rng;
        let mut buf = RolloutBuffer::new();
        for _ in 0..n {
            let mv = rng.gen_range(0..MOVES_PER_WORKER);
            let reward = if mv == 3 { 1.0 } else { 0.0 };
            buf.push(Transition {
                state: vec![0.1; state_len],
                moves: vec![mv],
                charges: vec![0],
                move_mask: vec![true; MOVES_PER_WORKER],
                charge_mask: vec![true; CHARGE_CHOICES],
                logp: (1.0f32 / 18.0).ln(), // roughly uniform behavior policy
                reward,
                value: 0.0,
            });
        }
        buf
    }

    #[test]
    fn finish_rollout_installs_targets() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut buf = synthetic_buffer(16, 8, &mut rng);
        finish_rollout(&mut buf, &PpoConfig::default(), 0.0);
        assert!(buf.has_targets());
        // Normalized advantages have near-zero mean.
        let mean: f32 = (0..buf.len()).map(|i| buf.adv(i)).sum::<f32>() / buf.len() as f32;
        assert!(mean.abs() < 1e-4);
    }

    #[test]
    fn grads_are_produced_and_finite() {
        let (mut store, net) = build_net(8, 1, 3);
        let mut rng = StdRng::seed_from_u64(1);
        let mut buf = synthetic_buffer(12, 3 * 8 * 8, &mut rng);
        finish_rollout(&mut buf, &PpoConfig::default(), 0.0);
        let idx: Vec<usize> = (0..buf.len()).collect();
        let stats = compute_ppo_grads(&net, &mut store, &buf, &idx, &PpoConfig::default());
        assert!(stats.value_loss.is_finite());
        assert!(stats.entropy > 0.0, "fresh policy entropy must be positive");
        assert!(store.grad_global_norm() > 0.0, "no gradients flowed");
        for id in store.ids() {
            assert!(!store.grad(id).has_non_finite(), "non-finite grad in {}", store.name(id));
        }
    }

    #[test]
    fn ppo_increases_probability_of_rewarded_action() {
        // On-policy bandit: move 3 earns reward 1, everything else 0.
        // Repeated rollout → update cycles must push the policy toward
        // move 3 — the sanity check for the whole PPO pipeline.
        use crate::policy::sample_categorical;
        use rand::Rng;

        let (mut store, net) = build_net(8, 1, 7);
        let cfg = PpoConfig { minibatch: 64, ..PpoConfig::default() };
        let mut rng = StdRng::seed_from_u64(2);
        let mut opt = Adam::new(3e-3);

        let policy_probs = |store: &ParamStore| -> (Vec<f32>, Vec<f32>) {
            let mut g = Graph::new();
            let s = g.leaf(Tensor::from_vec(&[1, 3, 8, 8], vec![0.1; 192]));
            let out = net.forward(&mut g, store, s);
            let sm = g.softmax(out.move_logits);
            let sc = g.softmax(out.charge_logits);
            (g.value(sm).data().to_vec(), g.value(sc).data().to_vec())
        };

        let before = policy_probs(&store).0[3];
        for _ in 0..60 {
            // On-policy rollout: sample from the *current* policy and store
            // its true log-probs.
            let (mp, cp) = policy_probs(&store);
            let mut buf = RolloutBuffer::new();
            for _ in 0..64 {
                let mv = sample_categorical(&mp, &mut rng);
                let ch = if rng.gen::<f32>() < cp[1] { 1 } else { 0 };
                buf.push(Transition {
                    state: vec![0.1; 192],
                    moves: vec![mv],
                    charges: vec![ch],
                    move_mask: vec![true; MOVES_PER_WORKER],
                    charge_mask: vec![true; CHARGE_CHOICES],
                    logp: mp[mv].max(1e-12).ln() + cp[ch].max(1e-12).ln(),
                    reward: if mv == 3 { 1.0 } else { 0.0 },
                    value: 0.0,
                });
            }
            finish_rollout(&mut buf, &cfg, 0.0);
            for batch in buf.minibatch_indices(cfg.minibatch, &mut rng) {
                store.zero_grads();
                compute_ppo_grads(&net, &mut store, &buf, &batch, &cfg);
                store.clip_grad_norm(cfg.max_grad_norm);
                opt.step(&mut store);
            }
        }
        let after = policy_probs(&store).0[3];
        assert!(
            after > before * 2.0 && after > 0.4,
            "P(move 3) went {before:.3} -> {after:.3}; PPO failed to learn"
        );
    }

    #[test]
    fn clip_bounds_update_incentive() {
        // With strongly off-policy old log-probs the ratio saturates the
        // clip; the objective must remain finite.
        let (mut store, net) = build_net(8, 1, 9);
        let mut buf = RolloutBuffer::new();
        for i in 0..8 {
            buf.push(Transition {
                state: vec![0.0; 192],
                moves: vec![i % MOVES_PER_WORKER],
                charges: vec![i % 2],
                move_mask: vec![true; MOVES_PER_WORKER],
                charge_mask: vec![true; CHARGE_CHOICES],
                logp: -20.0, // absurdly unlikely under behavior policy
                reward: 1.0,
                value: 0.0,
            });
        }
        finish_rollout(&mut buf, &PpoConfig::default(), 0.0);
        let idx: Vec<usize> = (0..buf.len()).collect();
        let stats = compute_ppo_grads(&net, &mut store, &buf, &idx, &PpoConfig::default());
        assert!(stats.policy_objective.is_finite());
        assert!(!store.flat_grads().iter().any(|g| !g.is_finite()));
    }

    #[test]
    fn value_clipping_bounds_the_value_loss() {
        // PPO2 value clipping takes max(sq, sq_clipped) per sample, so the
        // clipped loss reads >= the unclipped loss while its *gradient* is
        // bounded near the old value estimate. Contract checked here: both
        // variants stay finite and the ordering holds.
        let (mut store, net) = build_net(8, 1, 21);
        let mut buf = RolloutBuffer::new();
        for i in 0..8 {
            buf.push(Transition {
                state: vec![0.0; 192],
                moves: vec![i % MOVES_PER_WORKER],
                charges: vec![0],
                move_mask: vec![true; MOVES_PER_WORKER],
                charge_mask: vec![true; CHARGE_CHOICES],
                logp: -3.0,
                reward: 100.0, // huge returns vs ~0 values
                value: 0.0,
            });
        }
        let base = PpoConfig { clip_value: false, ..PpoConfig::default() };
        finish_rollout(&mut buf, &base, 0.0);
        let idx: Vec<usize> = (0..buf.len()).collect();

        store.zero_grads();
        let unclipped = compute_ppo_grads(&net, &mut store, &buf, &idx, &base);

        let clipped_cfg = PpoConfig { clip_value: true, ..base };
        let mut store2 = {
            let (s, _) = build_net(8, 1, 21);
            s
        };
        let clipped = compute_ppo_grads(&net, &mut store2, &buf, &idx, &clipped_cfg);

        assert!(unclipped.value_loss.is_finite() && clipped.value_loss.is_finite());
        // max(sq, sq_clip) >= sq pointwise, so the clipped loss reads higher
        // or equal...
        assert!(clipped.value_loss >= unclipped.value_loss - 1e-3);
        assert!(!store2.flat_grads().iter().any(|g| !g.is_finite()));
    }

    #[test]
    #[should_panic(expected = "finish_rollout")]
    fn updating_without_targets_panics() {
        let (mut store, net) = build_net(8, 1, 4);
        let mut rng = StdRng::seed_from_u64(5);
        let buf = synthetic_buffer(4, 192, &mut rng);
        compute_ppo_grads(&net, &mut store, &buf, &[0, 1], &PpoConfig::default());
    }
}
