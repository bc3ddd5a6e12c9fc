//! GRU4Rec (Hidasi et al. 2015) — session-based recurrent recommendation,
//! the paper's reference \[43\] in the sequential-models line of related
//! work (§II-B).
//!
//! A single GRU layer runs left-to-right over the interaction sequence;
//! the hidden state at position `t` predicts the item at `t+1` by dot
//! product against the (homogeneous) item embedding table, trained with
//! sampled BCE like the other sequence models in this workspace. The
//! user representation is the final hidden state — inferable from the
//! history alone, so GRU4Rec is *inductive* and SCCF-compatible: it is an
//! extra backend for the framework beyond the paper's FISM and SASRec,
//! demonstrating the "plug any inductive UI model" claim (§III).

use rand::rngs::StdRng;
use sccf_data::{LeaveOneOut, NegativeSampler};
use sccf_tensor::nn::{Embedding, Gru};
use sccf_tensor::optim::Adam;
use sccf_tensor::{Initializer, Mat, ParamStore, Tape, Var};
use sccf_util::rng::{rng_for, streams};

use crate::trainer::{shuffled_user_batches, EpochStats, TrainConfig};
use crate::traits::{score_all_inductive, InductiveUiModel, Recommender};

/// GRU4Rec hyper-parameters beyond the shared [`TrainConfig`].
#[derive(Debug, Clone)]
pub struct Gru4RecConfig {
    pub train: TrainConfig,
    /// Maximum sequence length processed per example (cost control; the
    /// recurrence in principle handles unbounded histories).
    pub max_len: usize,
}

impl Default for Gru4RecConfig {
    fn default() -> Self {
        Self {
            train: TrainConfig::default(),
            max_len: 30,
        }
    }
}

/// Trained GRU4Rec model.
pub struct Gru4Rec {
    store: ParamStore,
    items: Embedding,
    gru: Gru,
    cfg: Gru4RecConfig,
    n_items: usize,
}

impl Gru4Rec {
    fn build(
        n_items: usize,
        cfg: &Gru4RecConfig,
        rng: &mut StdRng,
    ) -> (ParamStore, Embedding, Gru) {
        let d = cfg.train.dim;
        let mut store = ParamStore::new();
        let init = Initializer::paper_default();
        let items = Embedding::new(&mut store, "gru4rec.items", n_items, d, init, rng);
        // Hidden size equals the embedding dim so the homogeneous table
        // can score states directly (the §III-B.3 convention).
        let gru = Gru::new(&mut store, "gru4rec.gru", d, d, init, rng);
        (store, items, gru)
    }

    /// Run the recurrence over `ids`, returning the stacked hidden states
    /// (`len × d`).
    fn encode(&self, tape: &mut Tape, ids: &[u32]) -> Var {
        debug_assert!(!ids.is_empty() && ids.len() <= self.cfg.max_len);
        let xs: Vec<Var> = ids
            .iter()
            .map(|&i| tape.gather(self.items.table, &[i]))
            .collect();
        let states = self.gru.run(tape, &xs);
        tape.concat_rows(&states)
    }

    /// Train on the leave-one-out split (shifted next-item prediction,
    /// sampled BCE — Eq. 9 with the SASRec-style instance derivation).
    pub fn train(split: &LeaveOneOut, cfg: &Gru4RecConfig) -> Self {
        let tc = cfg.train.clone();
        let n_users = split.n_users();
        let n_items = split.n_items();
        let mut init_rng = rng_for(tc.seed, streams::MODEL_INIT);
        let (store, items, gru) = Self::build(n_items, cfg, &mut init_rng);
        let mut model = Self {
            store,
            items,
            gru,
            cfg: cfg.clone(),
            n_items,
        };

        let sampler = NegativeSampler::new(n_items);
        let mut neg_rng = rng_for(tc.seed, streams::NEG_SAMPLING);
        let mut shuffle_rng = rng_for(tc.seed, streams::TRAIN_SHUFFLE);
        let steps = (n_users / tc.batch_users.max(1)).max(1);
        let mut adam = Adam::new(tc.adam(steps));

        for epoch in 0..tc.epochs {
            let mut stats = EpochStats {
                epoch,
                ..Default::default()
            };
            for batch in shuffled_user_batches(n_users, tc.batch_users, &mut shuffle_rng) {
                let mut grads = model.store.grads();
                let mut batch_loss = 0.0f64;
                let mut n_loss = 0u64;
                for &u in &batch {
                    let seq = split.train_seq(u);
                    if seq.len() < 2 {
                        continue;
                    }
                    let window = if seq.len() > model.cfg.max_len + 1 {
                        &seq[seq.len() - model.cfg.max_len - 1..]
                    } else {
                        seq
                    };
                    let inputs = &window[..window.len() - 1];
                    let targets = &window[1..];
                    let pos_set = seq.iter().copied().collect();

                    let mut tape = Tape::new(&model.store);
                    let h = model.encode(&mut tape, inputs);
                    let t_emb = tape.gather(model.items.table, targets);
                    let pos_logits = tape.rows_dot(h, t_emb);
                    let pos_loss = tape.bce_with_logits(pos_logits, &vec![1.0; targets.len()]);
                    let mut loss = pos_loss;
                    for _ in 0..tc.neg_k {
                        let negs: Vec<u32> = (0..targets.len())
                            .map(|_| sampler.sample(&mut neg_rng, &pos_set))
                            .collect();
                        let n_emb = tape.gather(model.items.table, &negs);
                        let neg_logits = tape.rows_dot(h, n_emb);
                        let neg_loss = tape.bce_with_logits(neg_logits, &vec![0.0; negs.len()]);
                        loss = tape.add(loss, neg_loss);
                    }
                    loss = tape.scale(loss, 1.0 / (1 + tc.neg_k) as f32);
                    batch_loss += tape.scalar(loss) as f64;
                    n_loss += 1;
                    grads.merge(tape.backward(loss));
                }
                if n_loss == 0 {
                    continue;
                }
                grads.scale(1.0 / n_loss as f32);
                adam.step(&mut model.store, &grads);
                stats.mean_loss += batch_loss / n_loss as f64;
                stats.n_examples += n_loss;
            }
            stats.mean_loss /= steps as f64;
            stats.log("GRU4Rec", tc.verbose);
        }
        model
    }

    /// Serialize the trained weights (including optimizer moments).
    pub fn save_bytes(&self) -> Vec<u8> {
        sccf_tensor::save_store(&self.store)
    }

    /// Rehydrate a model from a snapshot; the architecture is rebuilt
    /// from `cfg` and must match the snapshot exactly.
    pub fn load_bytes(
        n_items: usize,
        cfg: &Gru4RecConfig,
        bytes: &[u8],
    ) -> Result<Self, sccf_tensor::SnapshotError> {
        let mut init_rng = rng_for(cfg.train.seed, streams::MODEL_INIT);
        let (mut store, items, gru) = Self::build(n_items, cfg, &mut init_rng);
        sccf_tensor::load_into(&mut store, bytes)?;
        Ok(Self {
            store,
            items,
            gru,
            cfg: cfg.clone(),
            n_items,
        })
    }
}

impl Recommender for Gru4Rec {
    fn name(&self) -> String {
        "GRU4Rec".into()
    }

    fn n_items(&self) -> usize {
        self.n_items
    }

    fn score_all(&self, _user: u32, history: &[u32]) -> Vec<f32> {
        score_all_inductive(self, history)
    }
}

impl InductiveUiModel for Gru4Rec {
    fn dim(&self) -> usize {
        self.cfg.train.dim
    }

    /// Run the recurrence over the (truncated) history; the final hidden
    /// state is the user representation. Uses the tape-free fast path —
    /// the tape version copies every weight matrix per step, which is
    /// ~20× slower and matters on the Table III serving path. Equality with the tape recurrence is
    /// asserted in this module's tests.
    fn infer_user(&self, history: &[u32]) -> Vec<f32> {
        let mut h = vec![0.0f32; self.dim()];
        if history.is_empty() {
            return h;
        }
        let window = if history.len() > self.cfg.max_len {
            &history[history.len() - self.cfg.max_len..]
        } else {
            history
        };
        for &item in window {
            let x = self.items.row(&self.store, item);
            // borrow juggling: copy the embedding row (small) so the
            // store is free for the weight reads inside infer_step
            let x = x.to_vec();
            self.gru.infer_step(&self.store, &x, &mut h);
        }
        h
    }

    fn item_embeddings(&self) -> &Mat {
        self.store.value(self.items.table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sccf_data::{Dataset, Interaction};

    fn chain_dataset(n_users: usize, chain_len: usize) -> Dataset {
        let mut inter = Vec::new();
        for u in 0..n_users as u32 {
            let start = (u as usize * 3) % chain_len;
            for t in 0..8 {
                let item = ((start + t) % chain_len) as u32;
                inter.push(Interaction {
                    user: u,
                    item,
                    ts: t as i64,
                });
            }
        }
        Dataset::from_interactions("chain", n_users, chain_len, &inter, None)
    }

    fn quick_cfg() -> Gru4RecConfig {
        Gru4RecConfig {
            train: TrainConfig {
                dim: 16,
                epochs: 25,
                batch_users: 8,
                ..Default::default()
            },
            max_len: 10,
        }
    }

    #[test]
    fn learns_successor_structure() {
        let data = chain_dataset(30, 12);
        let split = LeaveOneOut::split(&data);
        let model = Gru4Rec::train(&split, &quick_cfg());
        let scores = model.score_all(0, &[2, 3, 4]);
        assert!(
            scores[5] > scores[9],
            "next {} vs far {}",
            scores[5],
            scores[9]
        );
    }

    #[test]
    fn infer_user_is_order_sensitive() {
        let data = chain_dataset(30, 12);
        let split = LeaveOneOut::split(&data);
        let model = Gru4Rec::train(&split, &quick_cfg());
        let a = model.infer_user(&[1, 2, 3]);
        let b = model.infer_user(&[3, 2, 1]);
        let diff: f32 = a.iter().zip(&b).map(|(x, y)| (x - y).abs()).sum();
        assert!(diff > 1e-4, "recurrent model must be order-sensitive");
    }

    #[test]
    fn infer_user_truncates_to_max_len() {
        let data = chain_dataset(10, 12);
        let split = LeaveOneOut::split(&data);
        let mut cfg = quick_cfg();
        cfg.train.epochs = 1;
        cfg.max_len = 4;
        let model = Gru4Rec::train(&split, &cfg);
        let long: Vec<u32> = (0..10).map(|i| i % 12).collect();
        let short = &long[long.len() - 4..];
        assert_eq!(model.infer_user(&long), model.infer_user(short));
    }

    #[test]
    fn empty_history_gives_zero_rep() {
        let data = chain_dataset(10, 12);
        let split = LeaveOneOut::split(&data);
        let mut cfg = quick_cfg();
        cfg.train.epochs = 1;
        let model = Gru4Rec::train(&split, &cfg);
        assert!(model.infer_user(&[]).iter().all(|&x| x == 0.0));
    }

    #[test]
    fn fast_inference_matches_tape_encoding() {
        let data = chain_dataset(12, 12);
        let split = LeaveOneOut::split(&data);
        let mut cfg = quick_cfg();
        cfg.train.epochs = 3;
        let model = Gru4Rec::train(&split, &cfg);
        let history = [1u32, 5, 2, 9, 3];
        let fast = model.infer_user(&history);
        let mut tape = Tape::new(&model.store);
        let h = model.encode(&mut tape, &history);
        let taped = tape.value(h).row(history.len() - 1);
        for (a, b) in fast.iter().zip(taped) {
            assert!((a - b).abs() < 1e-5, "fast {a} vs tape {b}");
        }
    }

    #[test]
    fn save_load_roundtrip_preserves_scores() {
        let data = chain_dataset(12, 12);
        let split = LeaveOneOut::split(&data);
        let mut cfg = quick_cfg();
        cfg.train.epochs = 3;
        let model = Gru4Rec::train(&split, &cfg);
        let bytes = model.save_bytes();
        let loaded = Gru4Rec::load_bytes(split.n_items(), &cfg, &bytes).unwrap();
        assert_eq!(
            model.score_all(0, &[1, 2, 3]),
            loaded.score_all(0, &[1, 2, 3])
        );
    }
}
