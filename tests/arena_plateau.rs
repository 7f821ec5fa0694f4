//! Pins the tensor arena's footprint over a long training run: bytes parked
//! in the per-thread freelists must stop growing once every buffer size the
//! trainer uses has been seen. The arena counters are process-wide, so this
//! binary holds exactly one test.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use drl_cews::prelude::*;
use vc_env::prelude::*;
use vc_nn::arena::arena_stats;

#[test]
fn held_arena_bytes_plateau_over_a_paper_training_run() {
    let mut cfg = TrainerConfig::drl_cews(EnvConfig::paper_default());
    cfg.num_employees = 2;
    let mut trainer = Trainer::new(cfg).unwrap();
    let mut held = Vec::new();
    for ep in 1..=60 {
        trainer.train_episode().unwrap();
        held.push(arena_stats().held_bytes);
        eprintln!("episode {ep}: held {:.3} MiB", held[ep - 1] as f64 / (1 << 20) as f64);
    }
    let (at20, at60) = (held[19], held[59]);
    assert!(
        at60 <= at20 + (1 << 20),
        "arena held bytes grew from {at20} after episode 20 to {at60} after episode 60"
    );
}
