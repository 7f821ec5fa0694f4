//! `fleet_rollout`: a 1000-worker factored-policy rollout.
//!
//! Forward-only: state encoding of 20 000 PoIs, the conv trunk and the
//! factored head tail, sampling, and struct-of-arrays physics. No chief,
//! backward pass or Adam runs here, so changes to those must read flat.

use crate::report::{
    arena_held_mib, complete, metric, peak_rss_mib, Outcome, END_TO_END, PER_LAYER,
};
use crate::stats::{derive_seed, median, percentile, windowed_percentile, Digest, Ledger};
use crate::Run;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;
use vc_env::prelude::*;
use vc_nn::prelude::*;
use vc_rl::prelude::*;

const WORKERS: usize = 1000;
/// Steps per repetition; each repetition rolls the fleet from its reset
/// state with a re-seeded sampler.
const STEPS: usize = 1000;
/// Fleet builds timed per run; the last one is rolled.
const SETUPS: usize = 9;
/// Largest share of a step the traced ledger may leave unexplained.
const MAX_UNACCOUNTED: f64 = 0.10;
/// Masked stochastic sampling, as in training.
const OPTS: PolicyOptions = PolicyOptions { mode: SampleMode::Stochastic, mask_invalid: true };

/// A 160×160 map with 20 000 uniform PoIs, 64 stations and no obstacles;
/// the horizon is long enough that no reset happens mid-run.
fn config(seed: u64) -> EnvConfig {
    let mut cfg = EnvConfig::paper_default();
    cfg.size_x = 160.0;
    cfg.size_y = 160.0;
    cfg.grid = 16;
    cfg.num_workers = WORKERS;
    cfg.num_pois = 20_000;
    cfg.num_stations = 64;
    cfg.horizon = 1_000_000;
    cfg.obstacles.clear();
    cfg.poi_distribution = PoiDistribution::Uniform;
    cfg.seed = derive_seed(seed, 11);
    cfg
}

/// A fleet and the policy that drives it.
struct Fleet {
    env: CrowdsensingEnv,
    net: FleetActorCritic,
    store: ParamStore,
    rng: StdRng,
}

fn build(seed: u64) -> Result<(Fleet, f64), String> {
    let t = Instant::now();
    let env = CrowdsensingEnv::try_new(config(seed)).map_err(|e| e.to_string())?;
    let mut init = StdRng::seed_from_u64(derive_seed(seed, 12));
    let mut store = ParamStore::new();
    let net = FleetActorCritic::new(&mut store, NetConfig::for_scenario(16, WORKERS), &mut init);
    let rng = StdRng::seed_from_u64(derive_seed(seed, 13));
    Ok((Fleet { env, net, store, rng }, t.elapsed().as_secs_f64()))
}

/// Builds the fleet [`SETUPS`] times, timing each, and keeps the last.
fn build_timed(seed: u64) -> Result<(Fleet, Vec<f64>), String> {
    let mut setup = Vec::with_capacity(SETUPS);
    let mut fleet = None;
    for _ in 0..SETUPS {
        let (f, s) = build(seed)?;
        setup.push(s);
        fleet = Some(f);
    }
    Ok((fleet.ok_or("no fleet built")?, setup))
}

impl Fleet {
    /// Back to the initial state: same map, same sampler stream.
    fn restart(&mut self, seed: u64) {
        self.env.reset();
        self.rng = StdRng::seed_from_u64(derive_seed(seed, 13));
    }
}

/// Checks one step's outputs and folds them into the digest.
fn check_step(s: &SampledAction, reward: f32, digest: &mut Digest, out: &mut Outcome) {
    out.attempted += 1;
    let ok = s.actions.len() == WORKERS
        && s.moves.iter().all(|&m| m < NUM_MOVES)
        && s.logp.is_finite()
        && s.value.is_finite()
        && reward.is_finite();
    out.failed += u64::from(!ok);
    let step = out.attempted;
    out.check(ok, || format!("step {step}: {} actions, logp {}", s.actions.len(), s.logp));
    digest.f32s(&[reward, s.logp, s.value]);
}

/// Folds the fleet's final collected data, energies and collisions.
fn finish_digest(env: &CrowdsensingEnv, digest: &mut Digest) {
    digest.f32s(env.fleet().poi_data());
    digest.f32s(env.fleet().energies());
    for w in env.workers() {
        digest.word(u64::from(w.collisions));
    }
}

/// Runs the workload.
pub fn run(run: Run) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (mut f, setup) = build_timed(run.seed)?;
    // Untraced repetitions: in the traced run they are the overhead base.
    let budget = if run.trace { run.seconds / 3.0 } else { run.seconds };
    let start = Instant::now();
    let mut reps_ms: Vec<Vec<f64>> = Vec::new();
    let mut first: Option<Digest> = None;
    let mut reps = 0;
    loop {
        let t = Instant::now();
        f.restart(run.seed);
        let mut digest = Digest::default();
        let mut step_ms = Vec::with_capacity(STEPS);
        for _ in 0..STEPS {
            let t = Instant::now();
            let s = sample_action_fleet(&f.net, &f.store, &f.env, OPTS, &mut f.rng);
            let result = f.env.step(&s.actions);
            let r = extrinsic_reward(RewardMode::Sparse, f.env.config(), &result.outcomes);
            step_ms.push(t.elapsed().as_secs_f64() * 1e3);
            check_step(&s, r, &mut digest, &mut out);
        }
        reps_ms.push(step_ms);
        finish_digest(&f.env, &mut digest);
        let want = *first.get_or_insert(digest);
        out.check(digest == want, || format!("repetition {reps} digest {digest:x?} != {want:x?}"));
        reps += 1;
        let rep_s = t.elapsed().as_secs_f64();
        if reps >= 2 && start.elapsed().as_secs_f64() + rep_s > budget {
            break;
        }
    }
    let want = first.unwrap_or_default();
    out.notes.push(format!("digest {want:x?} over {reps} repetitions of {STEPS} steps"));
    if run.trace {
        return traced(run, f, &reps_ms, want, out);
    }
    let step_ms: Vec<f64> = reps_ms.concat();
    let p50 = percentile(&step_ms, 50.0)?;
    // The p99 moves with interference from outside the process (0.13 of
    // its median between runs); the traced run reports it per layer.
    let p90 = windowed_percentile(&reps_ms, 90.0)?;
    let rates: Vec<f64> =
        reps_ms.iter().map(|r| r.len() as f64 * 1e3 / r.iter().sum::<f64>()).collect();
    out.metrics = complete(
        END_TO_END,
        vec![
            metric(
                "setup_s",
                "s",
                median(&setup),
                setup.len(),
                "env (20 000 PoIs) + FleetActorCritic build",
            ),
            metric("peak_rss_mb", "MiB", peak_rss_mib().unwrap_or(f64::NAN), 1, "VmHWM"),
            metric(
                "work_per_s",
                "1/s",
                median(&rates),
                step_ms.len(),
                "fleet.steps_per_s, median of repetitions",
            ),
            metric(
                "op_ms_p50",
                "ms",
                p50.value,
                p50.samples,
                "fleet.step_ms_p50: sample + step + reward",
            ),
            metric(
                "op_ms_tail",
                "ms",
                p90.value,
                p90.samples,
                format!("fleet.step_ms_p90, median of {reps} repetitions' ({} beyond)", p90.beyond),
            ),
        ],
    )?;
    Ok(out)
}

/// The traced repetition: every call of a step timed, plus two probes
/// outside the step (an encode and a value-only forward of the same
/// state) whose times, subtracted, split `sample_action_fleet` into
/// encode, trunk-and-heads forward, and sampling.
fn traced(
    run: Run,
    mut f: Fleet,
    untraced_ms: &[Vec<f64>],
    want: Digest,
    mut out: Outcome,
) -> Result<Outcome, String> {
    let mut l = Ledger::new("step");
    let sample_n = l.node(0, "vc_rl.fleet_sample", true);
    let forward_n = l.node(sample_n, "vc_rl.fleet_forward", true);
    let encode_n = l.node(forward_n, "vc_env.encode", true);
    let step_n = l.node(0, "vc_env.step", true);
    let reward_n = l.node(0, "vc_env.reward", true);
    f.restart(run.seed);
    let mut digest = Digest::default();
    let mut buf: Vec<f32> = Vec::new();
    let (mut calls, mut flops, mut hits, mut misses) = (0u64, 0u64, 0u64, 0u64);
    set_kernel_telemetry(true);
    let start = Instant::now();
    let mut steps = 0;
    while steps < STEPS || start.elapsed().as_secs_f64() < run.seconds / 2.0 {
        if steps % STEPS == 0 && steps > 0 {
            // Same-length repetitions keep the digest comparable.
            finish_digest(&f.env, &mut digest);
            out.check(digest == want, || format!("traced digest {digest:x?} != {want:x?}"));
            f.restart(run.seed);
            digest = Digest::default();
        }
        buf.clear();
        let t = Instant::now();
        encode_into(&f.env, &mut buf);
        let encode_s = t.elapsed().as_secs_f64();
        black_box(&buf);
        let t = Instant::now();
        let values = state_values_fleet(&f.net, &f.store, &[&f.env]);
        let forward_s = t.elapsed().as_secs_f64();

        let (k0, a0) = (kernel_counters(), arena_stats());
        let t = Instant::now();
        let s =
            l.time(sample_n, || sample_action_fleet(&f.net, &f.store, &f.env, OPTS, &mut f.rng));
        let result = l.time(step_n, || f.env.step(&s.actions));
        let r = l.time(reward_n, || {
            extrinsic_reward(RewardMode::Sparse, f.env.config(), &result.outcomes)
        });
        l.add(0, t.elapsed().as_secs_f64());
        let (k1, a1) = (kernel_counters(), arena_stats());
        l.add(forward_n, forward_s);
        l.add(encode_n, encode_s);
        l.end_op();
        calls += k1.gemm_calls - k0.gemm_calls;
        flops += k1.gemm_flops - k0.gemm_flops;
        hits += a1.hits - a0.hits;
        misses += a1.misses - a0.misses;
        out.check(values.first() == Some(&s.value), || {
            format!("value probe {values:?} != sampled value {}", s.value)
        });
        check_step(&s, r, &mut digest, &mut out);
        steps += 1;
    }
    set_kernel_telemetry(false);
    if steps % STEPS == 0 {
        finish_digest(&f.env, &mut digest);
        out.check(digest == want, || format!("traced digest {digest:x?} != {want:x?}"));
    }
    let unaccounted = l.unaccounted_frac();
    out.check(unaccounted <= MAX_UNACCOUNTED, || {
        format!("unaccounted_frac {unaccounted:.3} > {MAX_UNACCOUNTED}: a layer is missing")
    });
    let n = l.ops();
    let us = |id| median(&l.self_per_op(id)) * 1e6;
    let step_self: Vec<f64> = l
        .self_per_op(step_n)
        .iter()
        .zip(l.self_per_op(reward_n))
        .map(|(a, b)| (a + b) * 1e6)
        .collect();
    let overhead = median(l.total_per_op(0)) * 1e3 / median(&untraced_ms.concat()) - 1.0;
    let p99 = windowed_percentile(untraced_ms, 99.0)?;
    let ops = n as f64;
    out.metrics = complete(
        PER_LAYER,
        vec![
            metric(
                "vc_env.encode_us",
                "us",
                us(encode_n),
                n,
                "encode_into of 1000 workers + 20 000 PoIs",
            ),
            metric(
                "vc_env.step_us",
                "us",
                median(&step_self),
                n,
                "step + extrinsic_reward per step",
            ),
            metric(
                "vc_rl.fleet_forward_us",
                "us",
                us(forward_n),
                n,
                "state_values_fleet - encode: trunk + heads",
            ),
            metric(
                "vc_rl.fleet_sample_us",
                "us",
                us(sample_n),
                n,
                "sample_action_fleet - state_values_fleet",
            ),
            metric(
                "fleet.step_ms_p99",
                "ms",
                p99.value,
                p99.samples,
                format!(
                    "untraced step p99, median of {} repetitions' ({} beyond)",
                    untraced_ms.len(),
                    p99.beyond
                ),
            ),
            metric(
                "vc_nn.gemm_calls",
                "calls/op",
                calls as f64 / ops,
                n,
                "GEMM dispatches per step",
            ),
            metric(
                "vc_nn.gemm_gflop",
                "GFLOP/op",
                flops as f64 / ops / 1e9,
                n,
                "GEMM GFLOP per step",
            ),
            metric(
                "vc_nn.arena_hit_frac",
                "ratio",
                hits as f64 / (hits + misses) as f64,
                n,
                "arena hits / takes in a step",
            ),
            metric(
                "vc_nn.arena_held_mb",
                "MiB",
                arena_held_mib(),
                1,
                "bytes parked in the tensor arena at the end",
            ),
            metric("trace_overhead_frac", "ratio", overhead, n, "step p50, timers on vs off"),
            metric(
                "unaccounted_frac",
                "ratio",
                unaccounted,
                n,
                "step time outside every timed call",
            ),
            metric(
                "failed_frac",
                "ratio",
                out.failed as f64 / out.attempted.max(1) as f64,
                out.attempted as usize,
                "steps failing the output check",
            ),
        ],
    )?;
    Ok(out)
}
