//! `train_paper`: DRL-CEWS training at paper scale (Fig. 3, Table II).
//!
//! The only workload that runs backward passes, Adam, curiosity training
//! and the chief's gather/broadcast. A repetition trains a fresh trainer
//! for a fixed number of episodes; training is deterministic per seed, so
//! every repetition must produce the same per-episode statistics.

use crate::report::{
    arena_held_mib, complete, metric, peak_rss_mib, Outcome, END_TO_END, PER_LAYER,
};
use crate::stats::{derive_seed, median, percentile, windowed_percentile, Digest, Ledger, NodeId};
use crate::{scratch_path, Run};
use drl_cews::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::sync::{mpsc, Arc, Barrier};
use std::time::Instant;
use vc_curiosity::prelude::*;
use vc_env::prelude::*;
use vc_nn::prelude::*;
use vc_rl::prelude::*;
use vc_telemetry::Telemetry;

/// Episodes per repetition.
const EPISODES: usize = 100;
/// In-memory v2 checkpoint cadence, as `vc_train --ckpt-every 50`.
const CKPT_EVERY: usize = 50;
/// Extra trainer spawns timed before the first repetition.
const SETUPS: usize = 9;
/// Employee episodes the traced run replays, spread over the training run.
const REPLAY_EPISODES: usize = 50;
/// How far the replay may disagree with the trainer's own round timings.
const REPLAY_TOLERANCE: f64 = 0.10;
/// Largest share of an episode the traced ledger may leave unexplained.
const MAX_UNACCOUNTED: f64 = 0.10;

/// The paper's setting: 2 workers, 200 PoIs, horizon 100, paper obstacles,
/// sparse reward plus shared-embedding spatial curiosity, PPO with 4 epochs
/// and minibatch 250, two employees.
fn config(seed: u64) -> TrainerConfig {
    let mut env = EnvConfig::paper_default();
    env.seed = derive_seed(seed, 1);
    let mut cfg = TrainerConfig::drl_cews(env);
    cfg.num_employees = 2;
    cfg.seed = derive_seed(seed, 2);
    cfg
}

/// One fixed-length training run of a fresh trainer.
struct Rep {
    setup_s: f64,
    /// Wall time of each `train_episode` call, plus its checkpoint if any.
    episode_ms: Vec<f64>,
    /// `(episode, ms)` of each checkpoint.
    ckpt_ms: Vec<(usize, f64)>,
    train_s: f64,
    digest: Digest,
}

fn spawn(cfg: &TrainerConfig, telemetry: Telemetry) -> Result<(Trainer, f64), String> {
    let t = Instant::now();
    let trainer = Trainer::with_telemetry(cfg.clone(), telemetry)
        .map_err(|e| format!("trainer spawn failed: {e}"))?;
    Ok((trainer, t.elapsed().as_secs_f64()))
}

/// Trains a fresh trainer for [`EPISODES`] episodes, checking each; `between`
/// runs after every episode, outside the timed region.
fn train_rep(
    cfg: &TrainerConfig,
    telemetry: Telemetry,
    out: &mut Outcome,
    between: &mut dyn FnMut(usize, &Trainer) -> Result<(), String>,
) -> Result<(Rep, Trainer), String> {
    let (mut trainer, setup_s) = spawn(cfg, telemetry)?;
    let mut episode_ms = Vec::with_capacity(EPISODES);
    let mut ckpt_ms = Vec::new();
    let mut digest = Digest::default();
    let mut outside = std::time::Duration::ZERO;
    let start = Instant::now();
    for ep in 0..EPISODES {
        let restarts = trainer.restarts_used();
        let t = Instant::now();
        let stats = trainer.train_episode();
        let mut ckpt = None;
        if (ep + 1) % CKPT_EVERY == 0 {
            let tc = Instant::now();
            let bytes = trainer.checkpoint_v2();
            ckpt_ms.push((ep, tc.elapsed().as_secs_f64() * 1e3));
            ckpt = Some(bytes);
        }
        episode_ms.push(t.elapsed().as_secs_f64() * 1e3);

        out.attempted += 1;
        let respawned = trainer.restarts_used() != restarts;
        let ok = match &stats {
            Ok(s) => {
                let unit = |x: f32| x.is_finite() && (0.0..=1.0).contains(&x);
                let ok = unit(s.kappa) && unit(s.xi) && unit(s.rho) && !respawned;
                out.check(ok, || format!("episode {ep}: {s:?}, respawned {respawned}"));
                digest.f32s(&[s.kappa, s.xi, s.rho, s.ext_reward, s.int_reward]);
                digest.word(u64::from(s.collisions));
                ok
            }
            Err(e) => {
                out.check(false, || format!("episode {ep} failed: {e}"));
                false
            }
        };
        match ckpt {
            Some(Ok(bytes)) => digest.bytes(&bytes),
            Some(Err(e)) => out.check(false, || format!("checkpoint after episode {ep}: {e}")),
            None => {}
        }
        out.failed += u64::from(!ok);
        let paused = Instant::now();
        between(ep, &trainer)?;
        outside += paused.elapsed();
    }
    let train_s = (start.elapsed() - outside).as_secs_f64();
    let rounds = (EPISODES * cfg.ppo.epochs) as u64;
    let got = trainer.rounds_trained();
    out.check(got == rounds, || format!("{got} gradient rounds, expected {rounds}"));
    let restarts = trainer.restarts_used();
    out.check(restarts == 0, || format!("{restarts} employee respawns"));
    Ok((Rep { setup_s, episode_ms, ckpt_ms, train_s, digest }, trainer))
}

/// Runs the workload.
pub fn run(run: Run) -> Result<Outcome, String> {
    let cfg = config(run.seed);
    if run.trace {
        traced(&cfg)
    } else {
        untraced(run, &cfg)
    }
}

fn untraced(run: Run, cfg: &TrainerConfig) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setup = Vec::new();
    for _ in 0..SETUPS {
        setup.push(spawn(cfg, Telemetry::off())?.1);
    }
    let start = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    loop {
        let t = Instant::now();
        // The trainer's employee threads end with this statement.
        let (rep, _) = train_rep(cfg, Telemetry::off(), &mut out, &mut |_, _| Ok(()))?;
        let rep_s = t.elapsed().as_secs_f64();
        setup.push(rep.setup_s);
        if let Some(first) = reps.first() {
            let (a, b) = (first.digest, rep.digest);
            out.check(a == b, || format!("repetition {} digest {b:x?} != {a:x?}", reps.len()));
        }
        reps.push(rep);
        if reps.len() >= 2 && start.elapsed().as_secs_f64() + rep_s > run.seconds {
            break;
        }
    }
    let episode_ms: Vec<f64> = reps.iter().flat_map(|r| r.episode_ms.iter().copied()).collect();
    let transitions = (cfg.num_employees * cfg.env.horizon * EPISODES) as f64;
    let rates: Vec<f64> = reps.iter().map(|r| transitions / r.train_s).collect();
    let p50 = percentile(&episode_ms, 50.0)?;
    let windows: Vec<Vec<f64>> = reps.iter().map(|r| r.episode_ms.clone()).collect();
    let p90 = windowed_percentile(&windows, 90.0)?;
    out.notes.push(format!("digest {:x?} over {} repetitions", reps[0].digest, reps.len()));
    out.metrics = complete(
        END_TO_END,
        vec![
            metric("setup_s", "s", median(&setup), setup.len(), "Trainer spawn (2 employees)"),
            metric("peak_rss_mb", "MiB", peak_rss_mib().unwrap_or(f64::NAN), 1, "VmHWM"),
            metric(
                "work_per_s",
                "1/s",
                median(&rates),
                episode_ms.len(),
                "train.samples_per_s: transitions per second of training, median of repetitions",
            ),
            metric("op_ms_p50", "ms", p50.value, p50.samples, "train.episode_ms_p50"),
            metric(
                "op_ms_tail",
                "ms",
                p90.value,
                p90.samples,
                format!(
                    "train.episode_ms_p90, median of {} repetitions' ({} beyond)",
                    reps.len(),
                    p90.beyond
                ),
            ),
        ],
    )?;
    Ok(out)
}

/// Round phases of one episode, from the trainer's `round` events.
#[derive(Clone, Copy, Debug, Default)]
struct Phases {
    sync_ms: f64,
    gather_ms: f64,
    apply_ms: f64,
    broadcast_ms: f64,
    quarantined: u64,
    respawned: u64,
}

fn read_round_events(path: &std::path::Path, episodes: usize) -> Result<Vec<Phases>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("round events: {e}"))?;
    let mut phases = vec![Phases::default(); episodes];
    for line in text.lines() {
        let v: serde::Value = serde_json::from_str(line).map_err(|e| format!("event line: {e}"))?;
        if v.get("type").and_then(serde::Value::as_str) != Some("round") {
            continue;
        }
        let num = |k: &str| v.get(k).and_then(serde::Value::as_f64).unwrap_or(f64::NAN);
        let ep = num("episode") as usize;
        let p = phases.get_mut(ep).ok_or_else(|| format!("round event for episode {ep}"))?;
        p.sync_ms = num("sync_ms");
        p.gather_ms += num("gather_ms");
        p.apply_ms += num("apply_ms");
        p.broadcast_ms += num("broadcast_ms");
        p.quarantined += num("quarantined") as u64;
        p.respawned += num("respawned") as u64;
    }
    Ok(phases)
}

fn traced(cfg: &TrainerConfig) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    // Same seed, same work: the untraced repetition is the overhead base.
    let (plain, _) = train_rep(cfg, Telemetry::off(), &mut out, &mut |_, _| Ok(()))?;

    let events = scratch_path("train_rounds.jsonl")?;
    let telemetry = Telemetry::new();
    telemetry.attach_jsonl(&events).map_err(|e| format!("event sink: {e}"))?;
    // Replay episodes interleave with training so both see the same
    // machine; their kernel and arena tallies are kept apart.
    let replays = (0..cfg.num_employees)
        .map(|id| EmployeeReplay::new(cfg, &telemetry, id))
        .collect::<Result<Vec<_>, String>>()?;
    let mut tally = [0u64; 4];
    let (k0, a0) = (kernel_counters(), arena_stats());
    let ((traced, trainer), replays) = with_replay_threads(cfg, replays, |replay_episode| {
        train_rep(cfg, telemetry.clone(), &mut out, &mut |ep, trainer| {
            if ep % (EPISODES / REPLAY_EPISODES) != 0 {
                return Ok(());
            }
            let (k0, a0) = (kernel_counters(), arena_stats());
            replay_episode(trainer)?;
            let (k1, a1) = (kernel_counters(), arena_stats());
            for (t, d) in tally.iter_mut().zip([
                k1.gemm_calls - k0.gemm_calls,
                k1.gemm_flops - k0.gemm_flops,
                a1.hits - a0.hits,
                a1.misses - a0.misses,
            ]) {
                *t += d;
            }
            Ok(())
        })
    })?;
    let (k1, a1) = (kernel_counters(), arena_stats());
    let [replay_calls, replay_flops, replay_hits, replay_misses] = tally;
    telemetry.flush().map_err(|e| format!("event sink: {e}"))?;
    let phases = read_round_events(&events, EPISODES);
    let _ = std::fs::remove_file(&events);
    let phases = phases?;
    for (ep, p) in phases.iter().enumerate() {
        let bad = p.quarantined + p.respawned;
        out.check(bad == 0, || format!("episode {ep}: {bad} quarantined or respawned employees"));
        out.failed += u64::from(bad > 0);
    }
    out.check(plain.digest == traced.digest, || {
        format!("traced digest {:x?} != untraced {:x?}", traced.digest, plain.digest)
    });

    // The trainer's own phases: episode = rollout + rounds + checkpoint.
    let mut chief = Ledger::new("episode");
    let rollout = chief.node(0, "drl_cews.rollout", true);
    let gather = chief.node(0, "vc_rl.gather", true);
    let apply = chief.node(0, "drl_cews.apply", true);
    let broadcast = chief.node(0, "vc_rl.broadcast", true);
    let ckpt = chief.node(0, "drl_cews.ckpt", true);
    for (ep, (ms, p)) in traced.episode_ms.iter().zip(&phases).enumerate() {
        chief.add(0, ms / 1e3);
        chief.add(rollout, p.sync_ms / 1e3);
        chief.add(gather, p.gather_ms / 1e3);
        chief.add(apply, p.apply_ms / 1e3);
        chief.add(broadcast, p.broadcast_ms / 1e3);
        if let Some((_, c)) = traced.ckpt_ms.iter().find(|(e, _)| *e == ep) {
            chief.add(ckpt, c / 1e3);
        }
        chief.end_op();
    }

    let replay = &replays[0].ledger;
    let node = |name| replay.find(name).ok_or_else(|| format!("replay node {name}"));
    let per_episode_ms = |l: &Ledger, id| median(&l.self_per_op(id)) * 1e3;

    // Cross-check the replay against the trainer's rounds. Like the chief,
    // wait for the slower employee of each phase.
    let slowest = |f: &dyn Fn(&EmployeeReplay, usize) -> f64, n: usize| -> f64 {
        let per: Vec<f64> =
            (0..n).map(|i| replays.iter().map(|r| f(r, i)).fold(0.0, f64::max)).collect();
        median(&per) * 1e3
    };
    let rollout_n = node("rollout")?;
    let replay_rollout = slowest(&|r, e| r.ledger.total_per_op(rollout_n)[e], replay.ops());
    let epochs = cfg.ppo.epochs;
    let replay_grads =
        slowest(&|r, e| r.rounds[e * epochs..(e + 1) * epochs].iter().sum(), replay.ops());
    let sync = per_episode_ms(&chief, rollout);
    let gathers = per_episode_ms(&chief, gather);
    for (what, mine, theirs) in [
        ("rollout vs sync_ms", replay_rollout, sync),
        ("grads vs gather_ms", replay_grads, gathers),
    ] {
        let off = (mine - theirs).abs() / theirs;
        out.notes.push(format!(
            "replay {what}: {mine:.3} vs {theirs:.3} ms ({:+.1}%)",
            100.0 * (mine - theirs) / theirs
        ));
        out.check(off <= REPLAY_TOLERANCE, || {
            format!(
                "replay {what} differ by {:.1}% (> {:.0}%)",
                100.0 * off,
                100.0 * REPLAY_TOLERANCE
            )
        });
    }
    let unaccounted = chief.unaccounted_frac().max(replay.unaccounted_frac());
    out.notes.push(format!(
        "unaccounted: chief {:.4}, replay {:.4}",
        chief.unaccounted_frac(),
        replay.unaccounted_frac()
    ));
    out.check(unaccounted <= MAX_UNACCOUNTED, || {
        format!("unaccounted_frac {unaccounted:.3} > {MAX_UNACCOUNTED}: a layer is missing")
    });

    let eps = EPISODES as f64;
    let overhead = median(&traced.episode_ms) / median(&plain.episode_ms) - 1.0;
    let hits = (a1.hits - a0.hits - replay_hits) as f64;
    let misses = (a1.misses - a0.misses - replay_misses) as f64;
    let quarantined: u64 = phases.iter().map(|p| p.quarantined).sum();
    let respawns = trainer.restarts_used() as f64;
    let n_ep = traced.episode_ms.len();
    let call_us = |name| -> Result<f64, String> { Ok(replay.self_per_call(node(name)?) * 1e6) };
    let call_ms = |name| -> Result<f64, String> { Ok(replay.self_per_call(node(name)?) * 1e3) };
    let ckpts: Vec<f64> = traced.ckpt_ms.iter().map(|(_, c)| *c).collect();
    let r_eps = replay.ops();
    out.metrics = complete(
        PER_LAYER,
        vec![
            metric(
                "vc_env.encode_us",
                "us",
                call_us("vc_env.encode")?,
                r_eps,
                "per encode call (replay)",
            ),
            metric(
                "vc_env.step_us",
                "us",
                call_us("vc_env.step")?,
                r_eps,
                "per step + extrinsic_reward (replay)",
            ),
            metric(
                "vc_rl.sample_us",
                "us",
                call_us("vc_rl.sample")?,
                r_eps,
                "per sample_action, joint net B=1 (replay)",
            ),
            metric(
                "vc_rl.ppo_grads_ms",
                "ms",
                call_ms("vc_rl.ppo_grads")?,
                r_eps,
                "per compute_ppo_grads minibatch (replay)",
            ),
            metric(
                "vc_rl.gae_us",
                "us",
                call_us("vc_rl.gae")?,
                r_eps,
                "per finish_rollout, once per episode (replay)",
            ),
            metric("drl_cews.rollout_ms", "ms", sync, n_ep, "round events sync_ms per episode"),
            metric(
                "vc_rl.gather_ms",
                "ms",
                gathers,
                n_ep,
                "round events gather_ms, summed per episode",
            ),
            metric(
                "drl_cews.apply_ms",
                "ms",
                per_episode_ms(&chief, apply),
                n_ep,
                "round events apply_ms, summed per episode",
            ),
            metric(
                "vc_rl.broadcast_ms",
                "ms",
                per_episode_ms(&chief, broadcast),
                n_ep,
                "round events broadcast_ms, summed per episode",
            ),
            metric("vc_rl.respawns", "count", respawns, 1, "Trainer::restarts_used"),
            metric(
                "vc_rl.quarantined",
                "count",
                quarantined as f64,
                n_ep,
                "round events quarantined, summed",
            ),
            metric(
                "vc_curiosity.reward_us",
                "us",
                call_us("vc_curiosity.reward")?,
                r_eps,
                "per intrinsic_reward (replay)",
            ),
            metric(
                "vc_curiosity.grads_ms",
                "ms",
                call_ms("vc_curiosity.grads")?,
                r_eps,
                "per Curiosity::compute_grads (replay)",
            ),
            metric(
                "drl_cews.ckpt_ms",
                "ms",
                median(&ckpts),
                ckpts.len(),
                "per in-memory checkpoint_v2",
            ),
            metric(
                "vc_nn.gemm_calls",
                "calls/op",
                (k1.gemm_calls - k0.gemm_calls - replay_calls) as f64 / eps,
                n_ep,
                "GEMM dispatches per episode",
            ),
            metric(
                "vc_nn.gemm_gflop",
                "GFLOP/op",
                (k1.gemm_flops - k0.gemm_flops - replay_flops) as f64 / eps / 1e9,
                n_ep,
                "GEMM GFLOP per episode",
            ),
            metric(
                "vc_nn.arena_hit_frac",
                "ratio",
                hits / (hits + misses),
                n_ep,
                "arena hits / takes, traced trainer",
            ),
            metric(
                "vc_nn.arena_held_mb",
                "MiB",
                arena_held_mib(),
                1,
                "bytes parked in the tensor arenas at the end",
            ),
            metric(
                "trace_overhead_frac",
                "ratio",
                overhead,
                n_ep,
                "episode p50, telemetry on vs off",
            ),
            metric(
                "unaccounted_frac",
                "ratio",
                unaccounted,
                n_ep,
                "max of chief and replay ledgers",
            ),
            metric(
                "failed_frac",
                "ratio",
                out.failed as f64 / out.attempted.max(1) as f64,
                out.attempted as usize,
                "episodes errored or respawned",
            ),
        ],
    )?;
    Ok(out)
}

/// Ledger nodes of an employee replay.
#[derive(Clone, Copy)]
struct Nodes {
    rollout: NodeId,
    grads: NodeId,
    load_rollout: NodeId,
    encode: NodeId,
    sample: NodeId,
    step: NodeId,
    reward: NodeId,
    value: NodeId,
    gae: NodeId,
    load_grads: NodeId,
    param_store: NodeId,
    ppo: NodeId,
    cur_grads: NodeId,
}

/// One employee replayed on its own thread: the public calls an employee
/// makes, with the trainer's config, seed and current weights, each timed.
struct EmployeeReplay {
    env: CrowdsensingEnv,
    net: ActorCritic,
    store: ParamStore,
    curiosity: Box<dyn Curiosity>,
    rng: StdRng,
    buffer: RolloutBuffer,
    ledger: Ledger,
    n: Nodes,
    /// Wall time of each gradient round.
    rounds: Vec<f64>,
}

impl EmployeeReplay {
    fn new(cfg: &TrainerConfig, telemetry: &Telemetry, id: usize) -> Result<Self, String> {
        let mut env = CrowdsensingEnv::try_new(cfg.env.clone()).map_err(|e| e.to_string())?;
        // The traced trainer's employees record into the same registry.
        env.set_telemetry(telemetry.clone());
        let mut init = StdRng::seed_from_u64(cfg.seed);
        let mut store = ParamStore::new();
        let net_cfg = NetConfig::for_scenario(cfg.env.grid, cfg.env.num_workers);
        let net = ActorCritic::new(&mut store, net_cfg, &mut init);
        let mut l = Ledger::new("employee episode");
        let rollout = l.node(0, "rollout", false);
        let grads = l.node(0, "grads", false);
        let n = Nodes {
            rollout,
            grads,
            load_rollout: l.node(rollout, "vc_nn.load_params", true),
            encode: l.node(rollout, "vc_env.encode", true),
            sample: l.node(rollout, "vc_rl.sample", true),
            step: l.node(rollout, "vc_env.step", true),
            reward: l.node(rollout, "vc_curiosity.reward", true),
            value: l.node(rollout, "vc_rl.state_value", true),
            gae: l.node(rollout, "vc_rl.gae", true),
            load_grads: l.node(grads, "vc_nn.load_params", true),
            param_store: l.node(grads, "vc_nn.param_store", true),
            ppo: l.node(grads, "vc_rl.ppo_grads", true),
            cur_grads: l.node(grads, "vc_curiosity.grads", true),
        };
        Ok(EmployeeReplay {
            env,
            net,
            store,
            curiosity: cfg.curiosity.build(&cfg.env, cfg.seed.wrapping_add(77)),
            rng: StdRng::seed_from_u64(cfg.seed.wrapping_add(1000 + id as u64)),
            buffer: RolloutBuffer::new(),
            ledger: l,
            n,
            rounds: Vec::new(),
        })
    }

    fn load(&mut self, node: NodeId, policy: &[f32], cur: &[f32]) {
        let (store, curiosity) = (&mut self.store, &mut self.curiosity);
        self.ledger.time(node, || {
            store.load_flat_values(policy);
            if !cur.is_empty() {
                curiosity.params_mut().load_flat_values(cur);
            }
        });
    }

    /// One episode: rollout, then the gradient rounds, with a barrier where
    /// the chief synchronises its employees.
    fn episode(&mut self, cfg: &TrainerConfig, policy: &[f32], cur: &[f32], barrier: &Barrier) {
        let opts = PolicyOptions { mode: SampleMode::Stochastic, mask_invalid: cfg.mask_invalid };
        let Nodes {
            rollout,
            grads,
            load_rollout,
            encode: encode_n,
            sample,
            step,
            reward,
            value,
            gae,
            load_grads,
            param_store,
            ppo,
            cur_grads,
        } = self.n;
        barrier.wait();
        let t_rollout = Instant::now();
        // The chief's broadcasts are asynchronous: an employee copies new
        // weights in at the start of its next phase. Two land before a
        // rollout (the previous episode's last round and this episode's
        // start), one before every later gradient round.
        self.load(load_rollout, policy, cur);
        self.load(load_rollout, policy, cur);
        let EmployeeReplay { env, net, store, curiosity, rng, buffer, ledger: l, .. } = self;
        env.reset();
        buffer.clear();
        curiosity.clear_buffer();
        while !env.done() {
            let state = l.time(encode_n, || encode(env));
            let sampled = l.time(sample, || sample_action(net, store, env, opts, rng));
            let positions: Vec<Point> = env.workers().iter().map(|w| w.pos).collect();
            let r_ext = l.time(step, || {
                let result = env.step(&sampled.actions);
                extrinsic_reward(cfg.reward_mode, env.config(), &result.outcomes)
            });
            let next_positions: Vec<Point> = env.workers().iter().map(|w| w.pos).collect();
            let next_state = l.time(encode_n, || encode(env));
            let r_int = l.time(reward, || {
                curiosity.intrinsic_reward(&TransitionView {
                    state: &state,
                    next_state: &next_state,
                    positions: &positions,
                    next_positions: &next_positions,
                    moves: &sampled.moves,
                })
            });
            buffer.push(Transition {
                state,
                moves: sampled.moves,
                charges: sampled.charges,
                move_mask: sampled.move_mask,
                charge_mask: sampled.charge_mask,
                logp: sampled.logp,
                reward: r_ext + r_int,
                value: sampled.value,
            });
        }
        let v_last = l.time(value, || state_value(net, store, env));
        l.time(gae, || finish_rollout(buffer, &cfg.ppo, v_last));
        let rollout_s = t_rollout.elapsed().as_secs_f64();
        l.add(rollout, rollout_s);

        let mut grads_s = 0.0;
        for round in 0..cfg.ppo.epochs {
            barrier.wait();
            let t = Instant::now();
            if round > 0 {
                self.load(load_grads, policy, cur);
            }
            let EmployeeReplay { net, store, curiosity, rng, buffer, ledger: l, .. } = self;
            let batches = l.time(param_store, || {
                store.zero_grads();
                buffer.minibatch_indices(cfg.ppo.minibatch, rng)
            });
            if let Some(batch) = batches.first() {
                l.time(ppo, || compute_ppo_grads(net, store, buffer, batch, &cfg.ppo));
            }
            l.time(param_store, || {
                black_box(store.flat_grads());
                curiosity.params_mut().zero_grads();
            });
            l.time(cur_grads, || curiosity.compute_grads(cfg.ppo.minibatch, rng));
            l.time(param_store, || {
                if !curiosity.params().is_empty() {
                    black_box(curiosity.params().flat_grads());
                }
            });
            let round_s = t.elapsed().as_secs_f64();
            self.rounds.push(round_s);
            grads_s += round_s;
        }
        self.ledger.add(grads, grads_s);
        // The episode is its two phases; barrier waits belong to neither.
        self.ledger.add(0, rollout_s + grads_s);
        self.ledger.end_op();
    }
}

/// Runs `body` with a function that replays one episode of every employee
/// on the employee's own long-lived thread, as in the trainer, with the
/// trainer's current weights. Returns the replays when `body` is done.
fn with_replay_threads<T>(
    cfg: &TrainerConfig,
    replays: Vec<EmployeeReplay>,
    body: impl FnOnce(&mut dyn FnMut(&Trainer) -> Result<(), String>) -> Result<T, String>,
) -> Result<(T, Vec<EmployeeReplay>), String> {
    type Weights = Arc<(Vec<f32>, Vec<f32>)>;
    let barrier = Barrier::new(replays.len());
    std::thread::scope(|s| {
        let (done_tx, done_rx) = mpsc::channel::<()>();
        let mut orders = Vec::new();
        let mut handles = Vec::new();
        for mut r in replays {
            let (tx, rx) = mpsc::channel::<Weights>();
            let (done_tx, barrier) = (done_tx.clone(), &barrier);
            orders.push(tx);
            handles.push(s.spawn(move || {
                while let Ok(w) = rx.recv() {
                    r.episode(cfg, &w.0, &w.1, barrier);
                    let _ = done_tx.send(());
                }
                r
            }));
        }
        let mut replay_episode = |trainer: &Trainer| {
            let w = Arc::new((
                trainer.store().flat_values(),
                trainer.curiosity().params().flat_values(),
            ));
            for tx in &orders {
                tx.send(Arc::clone(&w)).map_err(|_| "replay thread ended".to_owned())?;
            }
            for _ in &orders {
                done_rx.recv().map_err(|_| "replay thread ended".to_owned())?;
            }
            Ok(())
        };
        let result = body(&mut replay_episode);
        drop(orders);
        let replays = handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "replay thread panicked".to_owned()))
            .collect::<Result<Vec<_>, String>>()?;
        Ok((result?, replays))
    })
}
