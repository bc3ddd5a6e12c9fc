//! The ranking stage (§V future work).
//!
//! The paper closes by noting that production *ranking* models "only
//! consider user-item relation to predict the score for each candidate"
//! and proposes applying the SCCF idea there too. This module does that:
//! a [`RankingStage`] takes the candidate list produced by **any**
//! upstream generator (the two-stage contract fixes it at ~500 items,
//! §IV-F) and re-scores every candidate with the same fused evidence the
//! integrating component uses — `[m_u ⊕ q_i ⊕ r̃ᵁᴵ ⊕ r̃ᵁᵁ]` (Eq. 15–16)
//! — so local neighborhood signal reaches the final ordering, not just
//! candidate selection.
//!
//! The fusion MLP is trained separately from the candidate-generation
//! integrator because the score distributions differ: here negatives are
//! whatever the upstream generator retrieved, not SCCF's own union.

use sccf_data::LeaveOneOut;
use sccf_models::InductiveUiModel;
use sccf_util::topk::Scored;

use crate::framework::Sccf;
use crate::integrator::{CandidateFeatures, Integrator, IntegratorConfig};

/// A trained ranking stage bound to the embedding dimension of the SCCF
/// instance it was trained with.
pub struct RankingStage {
    integrator: Integrator,
    dim: usize,
}

impl RankingStage {
    /// Train on validation users: for each user, `candidates_of(u)` is the
    /// upstream candidate list, the validation item is the positive, and
    /// users whose positive is absent are skipped (the Eq. 17 condition).
    /// Returns the stage and the number of usable training users.
    pub fn train<M: InductiveUiModel>(
        sccf: &Sccf<M>,
        split: &LeaveOneOut,
        candidates_of: impl Fn(u32) -> Vec<u32>,
        cfg: IntegratorConfig,
    ) -> (Self, usize) {
        let dim = sccf.model().dim();
        let mut integrator = Integrator::new(dim, cfg);
        let mut examples: Vec<(CandidateFeatures, u32)> = Vec::new();
        for u in split.val_users() {
            let val = split.val_item(u).expect("val user");
            let items = candidates_of(u);
            if items.is_empty() {
                continue;
            }
            let cand = sccf.features_for(u, split.train_seq(u), &items);
            if !cand.is_empty() {
                examples.push((cand, val));
            }
        }
        let used = integrator.train(&examples, sccf.model().item_embeddings());
        (Self { integrator, dim }, used)
    }

    /// Embedding dimension this stage was trained for.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Re-rank an upstream candidate list for `user`; returns the fused
    /// ordering (descending score, id as tie-break). Items the user has
    /// already interacted with are dropped.
    pub fn rank<M: InductiveUiModel>(
        &self,
        sccf: &Sccf<M>,
        user: u32,
        history: &[u32],
        items: &[u32],
    ) -> Vec<Scored> {
        assert_eq!(
            sccf.model().dim(),
            self.dim,
            "ranking stage was trained for dim {}, model has {}",
            self.dim,
            sccf.model().dim()
        );
        let cand = sccf.features_for(user, history, items);
        self.integrator
            .rank(&cand, sccf.model().item_embeddings(), usize::MAX)
    }

    /// Rank of `target` (1-based) in the re-ranked list, or `None` if the
    /// target is not among the candidates — the ranking-stage evaluation
    /// primitive (NDCG/HR within the candidate set).
    pub fn rank_of_target<M: InductiveUiModel>(
        &self,
        sccf: &Sccf<M>,
        user: u32,
        history: &[u32],
        items: &[u32],
        target: u32,
    ) -> Option<usize> {
        self.rank(sccf, user, history, items)
            .iter()
            .position(|s| s.id == target)
            .map(|p| p + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::SccfConfig;
    use sccf_data::{Dataset, Interaction};
    use sccf_models::{Fism, FismConfig, TrainConfig};
    use sccf_util::rng::rng_for;

    /// Two user groups with disjoint item blocks (strong neighborhoods).
    fn block_dataset() -> Dataset {
        use rand::Rng;
        let mut inter = Vec::new();
        let mut rng = rng_for(7, 13);
        for u in 0..24u32 {
            let base = if u < 12 { 0u32 } else { 12 };
            let mut seen = sccf_util::hash::fx_set();
            let mut t = 0;
            while t < 8 {
                let item = base + rng.gen_range(0..12u32);
                if seen.insert(item) {
                    inter.push(Interaction {
                        user: u,
                        item,
                        ts: t,
                    });
                    t += 1;
                }
            }
        }
        Dataset::from_interactions("blocks", 24, 24, &inter, None)
    }

    fn quick_sccf() -> (Sccf<Fism>, LeaveOneOut) {
        let data = block_dataset();
        let split = LeaveOneOut::split(&data);
        let fism = Fism::train(
            &split,
            &FismConfig {
                train: TrainConfig {
                    dim: 8,
                    epochs: 15,
                    batch_users: 6,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        let sccf = Sccf::build(fism, &split, SccfConfig::default());
        (sccf, split)
    }

    #[test]
    fn ranks_are_a_permutation_of_candidates() {
        let (sccf, split) = quick_sccf();
        let (stage, used) =
            RankingStage::train(&sccf, &split, |_| (0..24).collect(), Default::default());
        assert!(used > 0, "no usable ranking training users");
        let hist = split.train_seq(0);
        let items: Vec<u32> = (0..24).collect();
        let ranked = stage.rank(&sccf, 0, hist, &items);
        // every non-history candidate appears exactly once
        let expected = items.len() - hist.len();
        assert_eq!(ranked.len(), expected);
        let mut ids: Vec<u32> = ranked.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), expected);
        // sorted descending
        for w in ranked.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn duplicates_and_history_are_dropped() {
        let (sccf, split) = quick_sccf();
        let (stage, _) =
            RankingStage::train(&sccf, &split, |_| (0..24).collect(), Default::default());
        let hist = split.train_seq(3);
        let mut items: Vec<u32> = (0..24).collect();
        items.extend_from_slice(&[0, 1, 2]); // duplicates
        let ranked = stage.rank(&sccf, 3, hist, &items);
        assert!(ranked.iter().all(|s| !hist.contains(&s.id)));
        let mut ids: Vec<u32> = ranked.iter().map(|s| s.id).collect();
        let before = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), before);
    }

    #[test]
    fn rank_of_target_finds_position() {
        let (sccf, split) = quick_sccf();
        let (stage, _) =
            RankingStage::train(&sccf, &split, |_| (0..24).collect(), Default::default());
        let hist = split.train_plus_val(0);
        let target = split.test_item(0).unwrap();
        let items: Vec<u32> = (0..24).collect();
        let pos = stage.rank_of_target(&sccf, 0, &hist, &items, target);
        assert!(pos.is_some());
        assert!(pos.unwrap() >= 1 && pos.unwrap() <= items.len());
        // absent target
        assert_eq!(stage.rank_of_target(&sccf, 0, &hist, &[5], 99), None);
    }

    #[test]
    fn empty_candidate_list_yields_empty_ranking() {
        let (sccf, split) = quick_sccf();
        let (stage, _) =
            RankingStage::train(&sccf, &split, |_| (0..24).collect(), Default::default());
        assert!(stage.rank(&sccf, 0, split.train_seq(0), &[]).is_empty());
    }

    #[test]
    fn ranking_beats_reverse_ui_order_on_block_data() {
        // Sanity: the learned stage should place in-block targets above
        // cross-block items on average. Compare the mean target rank
        // against the worst case (candidates reversed ⇒ rank from the
        // bottom) to catch a stage that learned nothing.
        let (sccf, split) = quick_sccf();
        let (stage, used) =
            RankingStage::train(&sccf, &split, |_| (0..24).collect(), Default::default());
        assert!(used > 0);
        let items: Vec<u32> = (0..24).collect();
        let mut sum_rank = 0usize;
        let mut n = 0usize;
        for u in split.test_users() {
            let hist = split.train_plus_val(u);
            let target = split.test_item(u).unwrap();
            if let Some(r) = stage.rank_of_target(&sccf, u, &hist, &items, target) {
                sum_rank += r;
                n += 1;
            }
        }
        assert!(n > 0);
        let mean_rank = sum_rank as f64 / n as f64;
        // candidates per user ≈ 24 − |hist| ≈ 15; random would sit ≈ 8.
        assert!(
            mean_rank < 9.0,
            "mean target rank {mean_rank} suggests the stage learned nothing"
        );
    }
}
