//! The spatial curiosity model (Section V-C, Algorithm 3).
//!
//! A forward model `f` predicts the feature of a worker's *next position*
//! from its current position and route-planning decision:
//! `φ̂(l_{t+1}) = f(φ(l_t), v_t)` (Eqn 15). The prediction error
//! `Loss^f = ‖φ̂(l_{t+1}) − φ(l_{t+1})‖²` (Eqn 16) is both the training loss
//! and — scaled by η — the intrinsic reward (Eqn 17). Novel positions and
//! novel actions predict badly, so they pay out curiosity.
//!
//! **Function-class realization.** Because the feature targets are *static
//! random* codes (Burda-style), predicting them is pure memorization: a
//! small MLP on the 8-dim input code plateaus far from the codebook and the
//! intrinsic reward never fades (destroying the Fig. 9 dynamics). We
//! therefore realize `f` as a **linear codebook**: one trainable row per
//! `(grid cell, move)` pair, looked up by the pair index. Gradient descent
//! on Eqn (16) then decays the error *exactly where the worker has been* —
//! fast fading at visited transitions, full curiosity at novel ones — which
//! is the behavior the paper demonstrates. The feature choice of Fig. 4
//! (embedding vs direct) applies to the prediction *targets*.
//!
//! Two structures (Section VII-D): **shared** — one forward model serves all
//! workers sequentially (parameters don't grow with W, and workers benefit
//! from each other's experience); **independent** — one model per worker.

use crate::features::{FeatureKind, PositionFeature};
use crate::traits::{Curiosity, TransitionView};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use vc_env::geometry::Point;
use vc_nn::prelude::*;

/// Shared vs independent forward-model structure.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum StructureKind {
    /// One forward model for all workers (the paper's final choice).
    Shared,
    /// One forward model per worker.
    Independent,
}

/// Configuration of a spatial curiosity model.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SpatialCuriosityConfig {
    /// Position-feature extractor variant.
    pub feature: FeatureKind,
    /// Predictor structure (joint or per-worker).
    pub structure: StructureKind,
    /// Intrinsic-reward scale η (0.3 in the paper).
    pub eta: f32,
    /// Grid resolution used for position discretization and the embedding
    /// feature.
    pub grid: usize,
    /// Space width (for coordinate normalization).
    pub size_x: f32,
    /// Space height (for coordinate normalization).
    pub size_y: f32,
    /// Number of workers.
    pub num_workers: usize,
    /// Seed for feature tables and model init.
    pub seed: u64,
}

impl SpatialCuriosityConfig {
    /// The paper's final configuration: shared structure, embedding feature,
    /// η = 0.3.
    pub fn paper_default(grid: usize, size_x: f32, size_y: f32, num_workers: usize) -> Self {
        Self {
            feature: FeatureKind::Embedding,
            structure: StructureKind::Shared,
            eta: 0.3,
            grid,
            size_x,
            size_y,
            num_workers,
            seed: 7,
        }
    }
}

/// One recorded `(pair index, φ(l_{t+1}))` sample, per worker.
#[derive(Clone, Debug)]
struct Sample {
    worker: usize,
    pair: usize,
    next_feat: Vec<f32>,
}

/// The spatial curiosity model.
pub struct SpatialCuriosity {
    cfg: SpatialCuriosityConfig,
    store: ParamStore,
    features: Vec<PositionFeature>,
    /// Trainable prediction codebooks, one per model: `[grid²·9, feat_dim]`.
    models: Vec<Embedding>,
    buffer: Vec<Sample>,
}

const NUM_MOVES: usize = vc_env::action::NUM_MOVES;

impl SpatialCuriosity {
    /// Builds the model (feature extractors are frozen; the prediction
    /// codebooks are trainable and start at zero, so the initial error is
    /// exactly the target-feature energy everywhere).
    pub fn new(cfg: SpatialCuriosityConfig) -> Self {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let n_models = match cfg.structure {
            StructureKind::Shared => 1,
            StructureKind::Independent => cfg.num_workers,
        };
        let mut features = Vec::with_capacity(n_models);
        let mut models = Vec::with_capacity(n_models);
        for i in 0..n_models {
            let f = PositionFeature::new(
                cfg.feature,
                cfg.grid,
                cfg.size_x,
                cfg.size_y,
                &mut store,
                &format!("cur.feat{i}"),
                cfg.seed.wrapping_add(i as u64),
            );
            let dim = f.dim();
            let m = Embedding::new(
                &mut store,
                &format!("cur.fwd{i}"),
                cfg.grid * cfg.grid * NUM_MOVES,
                dim,
                true,
                &mut rng,
            );
            store.value_mut(m.param()).fill_zero();
            features.push(f);
            models.push(m);
        }
        Self { cfg, store, features, models, buffer: Vec::new() }
    }

    /// The model configuration.
    pub fn config(&self) -> &SpatialCuriosityConfig {
        &self.cfg
    }

    fn model_index(&self, worker: usize) -> usize {
        match self.cfg.structure {
            StructureKind::Shared => 0,
            StructureKind::Independent => worker,
        }
    }

    /// Discretizes a position and move into the codebook pair index.
    fn pair_index(&self, pos: &Point, mv: usize) -> usize {
        let g = self.cfg.grid;
        let cx = ((pos.x / self.cfg.size_x * g as f32) as usize).min(g - 1);
        let cy = ((pos.y / self.cfg.size_y * g as f32) as usize).min(g - 1);
        (cy * g + cx) * NUM_MOVES + mv
    }

    /// Forward-model prediction error for one worker transition (graph-free
    /// readout used for the per-step intrinsic reward and for Fig. 9 heat
    /// maps).
    pub fn prediction_error(&self, worker: usize, pos: &Point, mv: usize, next_pos: &Point) -> f32 {
        let mi = self.model_index(worker);
        let next_feat = self.features[mi].extract(&self.store, next_pos);
        let pred = self.models[mi].lookup(&self.store, self.pair_index(pos, mv));
        let dim = next_feat.len() as f32;
        pred.iter().zip(&next_feat).map(|(a, b)| (a - b) * (a - b)).sum::<f32>() / dim
    }
}

impl Curiosity for SpatialCuriosity {
    /// Algorithm 3: per worker, embed both positions, evaluate `Loss^f`, and
    /// return `η · Loss^f` averaged over workers. Also records the samples
    /// for the next gradient round.
    fn intrinsic_reward(&mut self, t: &TransitionView<'_>) -> f32 {
        assert_eq!(t.positions.len(), t.moves.len());
        assert_eq!(t.positions.len(), t.next_positions.len());
        let w = t.positions.len();
        let mut total = 0.0;
        for wi in 0..w {
            total +=
                self.prediction_error(wi, &t.positions[wi], t.moves[wi], &t.next_positions[wi]);
            let mi = self.model_index(wi);
            let next_feat = self.features[mi].extract(&self.store, &t.next_positions[wi]);
            self.buffer.push(Sample {
                worker: wi,
                pair: self.pair_index(&t.positions[wi], t.moves[wi]),
                next_feat,
            });
        }
        self.cfg.eta * total / w.max(1) as f32
    }

    /// Minimizes Eqn (16) over a sampled minibatch, accumulating gradients
    /// into the curiosity store (shipped to the curiosity gradient buffer).
    fn compute_grads(&mut self, minibatch: usize, rng: &mut StdRng) {
        if self.buffer.is_empty() {
            return;
        }
        let mut idx: Vec<usize> = (0..self.buffer.len()).collect();
        idx.shuffle(rng);
        idx.truncate(minibatch.max(1));
        // Group per model so each model sees one batched gather.
        let n_models = self.models.len();
        for mi in 0..n_models {
            let rows: Vec<&Sample> = idx
                .iter()
                .map(|&i| &self.buffer[i])
                .filter(|s| self.model_index(s.worker) == mi)
                .collect();
            if rows.is_empty() {
                continue;
            }
            let dim = self.features[mi].dim();
            let b = rows.len();
            // Both buffers come from the tensor arena: the graph returns
            // them there when it drops, and a buffer that was never taken
            // from it would grow the freelists by one every call.
            let mut pairs = vc_nn::arena::take_usize(b);
            pairs.extend(rows.iter().map(|s| s.pair));
            let mut targets = vc_nn::arena::take_f32(b * dim);
            for s in &rows {
                targets.extend_from_slice(&s.next_feat);
            }
            let mut g = Graph::new();
            let target = g.leaf(Tensor::from_vec(&[b, dim], targets));
            let pred = self.models[mi].forward(&mut g, &self.store, pairs);
            let d = g.sub(pred, target);
            let sq = g.square(d);
            let loss = g.mean_all(sq);
            g.backward(loss, &mut self.store);
        }
    }

    fn clear_buffer(&mut self) {
        self.buffer.clear();
    }

    fn params(&self) -> &ParamStore {
        &self.store
    }

    fn params_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    fn as_spatial(&self) -> Option<&SpatialCuriosity> {
        Some(self)
    }

    fn name(&self) -> &'static str {
        match (self.cfg.structure, self.cfg.feature) {
            (StructureKind::Shared, FeatureKind::Embedding) => "shared-embedding",
            (StructureKind::Shared, FeatureKind::Direct) => "shared-direct",
            (StructureKind::Independent, FeatureKind::Embedding) => "independent-embedding",
            (StructureKind::Independent, FeatureKind::Direct) => "independent-direct",
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use vc_nn::optim::{Adam, Optimizer};

    fn cfg(
        structure: StructureKind,
        feature: FeatureKind,
        workers: usize,
    ) -> SpatialCuriosityConfig {
        SpatialCuriosityConfig {
            feature,
            structure,
            eta: 0.3,
            grid: 8,
            size_x: 8.0,
            size_y: 8.0,
            num_workers: workers,
            seed: 11,
        }
    }

    fn view<'a>(pos: &'a [Point], next: &'a [Point], moves: &'a [usize]) -> TransitionView<'a> {
        TransitionView { state: &[], next_state: &[], positions: pos, next_positions: next, moves }
    }

    #[test]
    fn intrinsic_reward_is_positive_and_scaled_by_eta() {
        let mut c = SpatialCuriosity::new(cfg(StructureKind::Shared, FeatureKind::Embedding, 1));
        let pos = [Point::new(1.0, 1.0)];
        let next = [Point::new(2.0, 1.0)];
        let moves = [3usize];
        let r = c.intrinsic_reward(&view(&pos, &next, &moves));
        assert!(r > 0.0, "fresh model must be curious");
        let err = c.prediction_error(0, &pos[0], 3, &next[0]);
        assert!((r - 0.3 * err).abs() < 1e-5);
    }

    #[test]
    fn pair_index_distinguishes_cells_and_moves() {
        let c = SpatialCuriosity::new(cfg(StructureKind::Shared, FeatureKind::Embedding, 1));
        let a = c.pair_index(&Point::new(1.5, 1.5), 3);
        let b = c.pair_index(&Point::new(1.5, 1.5), 4);
        let d = c.pair_index(&Point::new(2.5, 1.5), 3);
        assert_ne!(a, b);
        assert_ne!(a, d);
        // Edge positions clamp into the grid.
        let e = c.pair_index(&Point::new(8.0, 8.0), 0);
        assert!(e < 8 * 8 * NUM_MOVES);
    }

    #[test]
    fn training_reduces_prediction_error_on_repeated_transition() {
        // The Fig. 9 effect: repeatedly visiting the same transition drives
        // the curiosity value at that location down.
        let mut c = SpatialCuriosity::new(cfg(StructureKind::Shared, FeatureKind::Embedding, 1));
        let pos = [Point::new(1.5, 1.5)];
        let next = [Point::new(2.5, 1.5)];
        let moves = [3usize];
        let before = c.prediction_error(0, &pos[0], 3, &next[0]);
        let mut rng = StdRng::seed_from_u64(0);
        let mut opt = Adam::new(1e-2);
        for _ in 0..400 {
            c.intrinsic_reward(&view(&pos, &next, &moves));
            c.params_mut().zero_grads();
            c.compute_grads(32, &mut rng);
            opt.step(c.params_mut());
            c.clear_buffer();
        }
        let after = c.prediction_error(0, &pos[0], 3, &next[0]);
        assert!(after < before / 10.0, "error {before} -> {after}: curiosity did not fade");
    }

    #[test]
    fn novel_location_stays_more_curious_than_trained_one() {
        let mut c = SpatialCuriosity::new(cfg(StructureKind::Shared, FeatureKind::Embedding, 1));
        let pos = [Point::new(1.5, 1.5)];
        let next = [Point::new(2.5, 1.5)];
        let moves = [3usize];
        let mut rng = StdRng::seed_from_u64(1);
        let mut opt = Adam::new(1e-2);
        for _ in 0..150 {
            c.intrinsic_reward(&view(&pos, &next, &moves));
            c.params_mut().zero_grads();
            c.compute_grads(32, &mut rng);
            opt.step(c.params_mut());
            c.clear_buffer();
        }
        let trained = c.prediction_error(0, &pos[0], 3, &next[0]);
        let novel = c.prediction_error(0, &Point::new(6.5, 6.5), 1, &Point::new(6.5, 7.5));
        assert!(novel > trained * 5.0, "novel {novel} vs trained {trained}");
    }

    #[test]
    fn shared_structure_param_count_independent_of_workers() {
        let c2 = SpatialCuriosity::new(cfg(StructureKind::Shared, FeatureKind::Embedding, 2));
        let c8 = SpatialCuriosity::new(cfg(StructureKind::Shared, FeatureKind::Embedding, 8));
        assert_eq!(c2.params().num_scalars(), c8.params().num_scalars());
    }

    #[test]
    fn independent_structure_params_scale_with_workers() {
        let c2 = SpatialCuriosity::new(cfg(StructureKind::Independent, FeatureKind::Embedding, 2));
        let c4 = SpatialCuriosity::new(cfg(StructureKind::Independent, FeatureKind::Embedding, 4));
        assert_eq!(c4.params().num_scalars(), 2 * c2.params().num_scalars());
    }

    #[test]
    fn independent_models_learn_separately() {
        let mut c =
            SpatialCuriosity::new(cfg(StructureKind::Independent, FeatureKind::Embedding, 2));
        // Train only worker 0's moving transition; worker 1 stays put.
        let pos = [Point::new(1.5, 1.5), Point::new(5.5, 5.5)];
        let next = [Point::new(2.5, 1.5), Point::new(5.5, 5.5)];
        let moves = [3usize, 0usize];
        let mut rng = StdRng::seed_from_u64(2);
        let mut opt = Adam::new(1e-2);
        for _ in 0..60 {
            c.intrinsic_reward(&view(&pos, &next, &moves));
            c.params_mut().zero_grads();
            c.compute_grads(64, &mut rng);
            opt.step(c.params_mut());
            c.clear_buffer();
        }
        // Worker 0's trained transition faded relative to a fresh model.
        let w0 = c.prediction_error(0, &pos[0], 3, &next[0]);
        let fresh =
            SpatialCuriosity::new(cfg(StructureKind::Independent, FeatureKind::Embedding, 2));
        let w0_fresh = fresh.prediction_error(0, &pos[0], 3, &next[0]);
        assert!(w0 < w0_fresh, "worker 0 model did not learn");
        // Worker 1's model never saw worker 0's transition: its error there
        // is untouched (no cross-worker leakage).
        let w1 = c.prediction_error(1, &pos[0], 3, &next[0]);
        let w1_fresh = fresh.prediction_error(1, &pos[0], 3, &next[0]);
        assert!((w1 - w1_fresh).abs() < 1e-6, "independent models leaked: {w1} vs {w1_fresh}");
    }

    #[test]
    fn variant_names_are_distinct() {
        let mut names = std::collections::HashSet::new();
        for s in [StructureKind::Shared, StructureKind::Independent] {
            for f in [FeatureKind::Embedding, FeatureKind::Direct] {
                names.insert(SpatialCuriosity::new(cfg(s, f, 1)).name());
            }
        }
        assert_eq!(names.len(), 4);
    }

    #[test]
    fn direct_feature_variant_works_end_to_end() {
        let mut c = SpatialCuriosity::new(cfg(StructureKind::Shared, FeatureKind::Direct, 1));
        let pos = [Point::new(1.0, 1.0)];
        let next = [Point::new(2.0, 1.0)];
        let moves = [3usize];
        let r = c.intrinsic_reward(&view(&pos, &next, &moves));
        assert!(r >= 0.0 && r.is_finite());
        let mut rng = StdRng::seed_from_u64(3);
        c.params_mut().zero_grads();
        c.compute_grads(8, &mut rng);
        assert!(c.params().grad_global_norm() > 0.0);
    }

    #[test]
    fn embedding_targets_pay_larger_curiosity_than_direct() {
        // The Fig. 4 finding reproduced at model level: random embedding
        // targets carry more energy than normalized coordinates, so the
        // fresh-model intrinsic reward is larger and better separated.
        let mut emb = SpatialCuriosity::new(cfg(StructureKind::Shared, FeatureKind::Embedding, 1));
        let mut dir = SpatialCuriosity::new(cfg(StructureKind::Shared, FeatureKind::Direct, 1));
        let pos = [Point::new(3.0, 3.0)];
        let next = [Point::new(4.0, 3.0)];
        let moves = [3usize];
        let re = emb.intrinsic_reward(&view(&pos, &next, &moves));
        let rd = dir.intrinsic_reward(&view(&pos, &next, &moves));
        assert!(re > rd, "embedding reward {re} should exceed direct {rd}");
    }
}
