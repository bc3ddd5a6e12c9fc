//! The integrating component (§III-D): a fully-connected network fusing
//! global (UI) and local (UU) evidence into the final candidate ranking.
//!
//! For every item in the candidate union `C_I = Cᵁᴵ ∪ Cᵁᵁ`, the input is
//! the concatenation (Eq. 15–16)
//!
//! ```text
//! input(u,i) = [ m_u ⊕ q_i ⊕ r̃ᵁᴵ(u,i) ⊕ r̃ᵁᵁ(u,i) ]
//! ```
//!
//! with both preference scores z-normalized per user over the union.
//! Training (Eq. 17) uses each user's validation item (the one just
//! before the last) as the positive and every other union candidate as a
//! negative; users whose positive is not in the union are skipped, as the
//! paper specifies. Early stopping monitors BCE on a held-out 10 % of
//! training users (§IV-A.4).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use sccf_tensor::nn::Mlp;
use sccf_tensor::optim::{Adam, AdamConfig};
use sccf_tensor::{Initializer, Mat, ParamStore, Tape};
use sccf_util::rng::{rng_for, streams};
use sccf_util::topk::Scored;
use sccf_util::zscore_normalize;

/// Integrator hyper-parameters.
#[derive(Debug, Clone)]
pub struct IntegratorConfig {
    /// Hidden layer widths of the fusion MLP.
    pub hidden: Vec<usize>,
    pub epochs: usize,
    pub lr: f32,
    pub l2: f32,
    /// Fraction of training users held out for early stopping.
    pub val_frac: f64,
    /// Stop after this many epochs without validation improvement.
    pub patience: usize,
    /// Ablation switch: disable the Eq. 16 per-user z-normalization.
    pub normalize_scores: bool,
    pub seed: u64,
    pub verbose: bool,
}

impl Default for IntegratorConfig {
    fn default() -> Self {
        Self {
            hidden: vec![64, 32],
            epochs: 30,
            lr: 1e-3,
            l2: 0.0,
            val_frac: 0.1,
            patience: 3,
            normalize_scores: true,
            seed: 42,
            verbose: false,
        }
    }
}

/// One user's training (or scoring) unit: the candidate union with raw
/// scores and, during training, the index of the positive item.
#[derive(Debug, Clone, Default)]
pub struct CandidateFeatures {
    /// User representation `m_u`.
    pub user_rep: Vec<f32>,
    /// Candidate item ids (the union `C_I`).
    pub items: Vec<u32>,
    /// Raw `r̂ᵁᴵ` per candidate.
    pub ui_scores: Vec<f32>,
    /// Raw `r̂ᵁᵁ` per candidate.
    pub uu_scores: Vec<f32>,
}

impl CandidateFeatures {
    pub fn len(&self) -> usize {
        self.items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

/// The trained fusion network.
pub struct Integrator {
    store: ParamStore,
    mlp: Mlp,
    dim: usize,
    cfg: IntegratorConfig,
}

impl Integrator {
    /// Create with freshly initialized weights for user/item dim `d`.
    pub fn new(d: usize, cfg: IntegratorConfig) -> Self {
        let mut store = ParamStore::new();
        let mut rng = rng_for(cfg.seed, streams::INTEGRATOR);
        let mut dims = vec![2 * d + 2];
        dims.extend_from_slice(&cfg.hidden);
        dims.push(1);
        let mlp = Mlp::new(
            &mut store,
            "integrator",
            &dims,
            Initializer::XavierUniform,
            &mut rng,
        );
        Self {
            store,
            mlp,
            dim: d,
            cfg,
        }
    }

    /// Assemble the `(|C| × 2d+2)` input matrix (Eq. 15–16), applying the
    /// per-user normalization unless ablated.
    fn features(&self, cand: &CandidateFeatures, item_table: &Mat) -> Mat {
        let d = self.dim;
        let n = cand.len();
        let mut ui = cand.ui_scores.clone();
        let mut uu = cand.uu_scores.clone();
        if self.cfg.normalize_scores {
            zscore_normalize(&mut ui);
            zscore_normalize(&mut uu);
        }
        let mut input = Mat::zeros(n, 2 * d + 2);
        for (r, &item) in cand.items.iter().enumerate() {
            let row = input.row_mut(r);
            row[..d].copy_from_slice(&cand.user_rep);
            row[d..2 * d].copy_from_slice(item_table.row(item as usize));
            row[2 * d] = ui[r];
            row[2 * d + 1] = uu[r];
        }
        input
    }

    /// Final scores `r̂ᶠⁱ` for every candidate in the union.
    pub fn score(&self, cand: &CandidateFeatures, item_table: &Mat) -> Vec<f32> {
        if cand.is_empty() {
            return Vec::new();
        }
        let input = self.features(cand, item_table);
        let mut tape = Tape::new(&self.store);
        let x = tape.input(input);
        let logits = self.mlp.forward(&mut tape, x);
        tape.value(logits).data().to_vec()
    }

    /// The slate tail every fused ranking shares: score the union, order
    /// it (descending score, ascending id on ties) and keep the top `k` —
    /// `Sccf`'s slate and [`crate::RankingStage::rank`] (which keeps
    /// every candidate) both end here.
    pub(crate) fn rank(&self, cand: &CandidateFeatures, item_table: &Mat, k: usize) -> Vec<Scored> {
        let fused = self.score(cand, item_table);
        let mut scored: Vec<Scored> = cand
            .items
            .iter()
            .zip(&fused)
            .map(|(&id, &score)| Scored { id, score })
            .collect();
        scored.sort_unstable_by(|a, b| b.score.total_cmp(&a.score).then(a.id.cmp(&b.id)));
        scored.truncate(k);
        scored
    }

    /// Train on `(candidates, positive item)` pairs. Users whose positive
    /// is absent from their union are skipped (Eq. 17's condition).
    /// Returns the number of usable training users.
    pub fn train(&mut self, examples: &[(CandidateFeatures, u32)], item_table: &Mat) -> usize {
        // keep only users whose ground truth is inside the union
        let usable: Vec<&(CandidateFeatures, u32)> = examples
            .iter()
            .filter(|(c, pos)| c.items.contains(pos))
            .collect();
        if usable.is_empty() {
            return 0;
        }
        let mut order: Vec<usize> = (0..usable.len()).collect();
        let mut rng: StdRng = rng_for(self.cfg.seed, streams::TRAIN_SHUFFLE);
        order.shuffle(&mut rng);
        let n_val = ((usable.len() as f64 * self.cfg.val_frac) as usize).min(usable.len() / 2);
        let (val_idx, train_idx) = order.split_at(n_val);

        let steps = train_idx.len().max(1);
        let mut adam = Adam::new(AdamConfig {
            lr: self.cfg.lr,
            l2: self.cfg.l2,
            decay_steps: Some((steps * self.cfg.epochs) as u64),
            final_lr_frac: 0.1,
            ..Default::default()
        });

        let user_loss = |store: &ParamStore,
                         mlp: &Mlp,
                         me: &Self,
                         ex: &(CandidateFeatures, u32),
                         backward: bool|
         -> (f32, Option<sccf_tensor::Grads>) {
            let (cand, pos) = ex;
            let input = me.features(cand, item_table);
            let labels: Vec<f32> = cand
                .items
                .iter()
                .map(|&i| if i == *pos { 1.0 } else { 0.0 })
                .collect();
            let mut tape = Tape::new(store);
            let x = tape.input(input);
            let logits = mlp.forward(&mut tape, x);
            let loss = tape.bce_with_logits(logits, &labels);
            let l = tape.scalar(loss);
            let g = backward.then(|| tape.backward(loss));
            (l, g)
        };

        let mut best_val = f32::INFINITY;
        let mut best_store: Option<ParamStore> = None;
        let mut bad_epochs = 0usize;
        for epoch in 0..self.cfg.epochs {
            let mut shuffled: Vec<usize> = train_idx.to_vec();
            shuffled.shuffle(&mut rng);
            let mut train_loss = 0.0f64;
            for &i in &shuffled {
                let (l, g) = user_loss(&self.store, &self.mlp, self, usable[i], true);
                train_loss += l as f64;
                adam.step(&mut self.store, &g.expect("grads requested"));
            }
            // validation
            let val_loss: f32 = if val_idx.is_empty() {
                (train_loss / shuffled.len().max(1) as f64) as f32
            } else {
                let sum: f32 = val_idx
                    .iter()
                    .map(|&i| user_loss(&self.store, &self.mlp, self, usable[i], false).0)
                    .sum();
                sum / val_idx.len() as f32
            };
            if self.cfg.verbose {
                eprintln!(
                    "[integrator] epoch {epoch:>3}  train {:.5}  val {val_loss:.5}",
                    train_loss / shuffled.len().max(1) as f64
                );
            }
            if val_loss < best_val - 1e-5 {
                best_val = val_loss;
                best_store = Some(self.store.clone());
                bad_epochs = 0;
            } else {
                bad_epochs += 1;
                if bad_epochs > self.cfg.patience {
                    break;
                }
            }
        }
        if let Some(s) = best_store {
            self.store = s;
        }
        usable.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic fusion task: the positive item is recognizable from the
    /// UU score alone (UI is pure noise). The integrator must learn to
    /// weight the UU channel.
    fn make_examples(n_users: usize, d: usize, seed: u64) -> (Vec<(CandidateFeatures, u32)>, Mat) {
        use rand::Rng;
        let mut rng = rng_for(seed, 77);
        let n_items = 50;
        let item_table = Mat::from_vec(
            n_items,
            d,
            (0..n_items * d).map(|_| rng.gen_range(-0.1..0.1)).collect(),
        );
        let mut out = Vec::new();
        for _ in 0..n_users {
            let items: Vec<u32> = (0..10).map(|_| rng.gen_range(0..n_items as u32)).collect();
            let pos_idx = rng.gen_range(0..items.len());
            let ui: Vec<f32> = (0..items.len()).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let uu: Vec<f32> = (0..items.len())
                .map(|j| {
                    if j == pos_idx {
                        2.0
                    } else {
                        rng.gen_range(-0.2..0.2)
                    }
                })
                .collect();
            let user_rep: Vec<f32> = (0..d).map(|_| rng.gen_range(-0.1..0.1)).collect();
            out.push((
                CandidateFeatures {
                    user_rep,
                    items: items.clone(),
                    ui_scores: ui,
                    uu_scores: uu,
                },
                items[pos_idx],
            ));
        }
        (out, item_table)
    }

    #[test]
    fn learns_to_use_the_uu_channel() {
        let d = 4;
        let (examples, table) = make_examples(60, d, 1);
        let mut integ = Integrator::new(
            d,
            IntegratorConfig {
                hidden: vec![16],
                epochs: 40,
                lr: 5e-3,
                ..Default::default()
            },
        );
        let used = integ.train(&examples, &table);
        assert!(used > 50);
        // held-out style check: on fresh examples the positive should rank
        // first among candidates most of the time
        let (fresh, _) = make_examples(30, d, 2);
        let mut hits = 0;
        for (cand, pos) in &fresh {
            let scores = integ.score(cand, &table);
            let best = scores
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .unwrap()
                .0;
            if cand.items[best] == *pos {
                hits += 1;
            }
        }
        assert!(hits >= 20, "only {hits}/30 correct");
    }

    #[test]
    fn skips_users_without_positive_in_union() {
        let d = 2;
        let (mut examples, table) = make_examples(5, d, 3);
        // corrupt: positive not in the union
        for (cand, pos) in examples.iter_mut() {
            *pos = 999;
            let _ = cand;
        }
        let mut integ = Integrator::new(d, IntegratorConfig::default());
        assert_eq!(integ.train(&examples, &table), 0);
    }

    #[test]
    fn empty_candidates_score_empty() {
        let integ = Integrator::new(2, IntegratorConfig::default());
        let table = Mat::zeros(3, 2);
        let cand = CandidateFeatures {
            user_rep: vec![0.0, 0.0],
            items: vec![],
            ui_scores: vec![],
            uu_scores: vec![],
        };
        assert!(integ.score(&cand, &table).is_empty());
    }

    #[test]
    fn normalization_ablation_changes_scores() {
        let d = 2;
        let (examples, table) = make_examples(1, d, 4);
        let a = Integrator::new(
            d,
            IntegratorConfig {
                normalize_scores: true,
                ..Default::default()
            },
        );
        let b = Integrator::new(
            d,
            IntegratorConfig {
                normalize_scores: false,
                ..Default::default()
            },
        );
        let sa = a.score(&examples[0].0, &table);
        let sb = b.score(&examples[0].0, &table);
        assert_ne!(sa, sb);
    }
}
