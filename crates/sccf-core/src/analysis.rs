//! Complementarity analysis (RQ2 / Figure 4).
//!
//! For each evaluated user the paper compares three cosine similarities
//! against the user representation: the ground-truth target item, the
//! average over the UI candidate list, and the average over the UU
//! candidate list. The observed pattern — UI sits *above* the target
//! distribution, UU sits *below* — is the evidence that the two
//! components look at different neighborhoods of the item space and thus
//! complement each other.

use sccf_data::LeaveOneOut;
use sccf_models::InductiveUiModel;
use sccf_util::stats::Histogram;
use sccf_util::topk::topk_of_scores;

use crate::framework::Sccf;

/// The three Figure 4 series, as histograms over cosine similarity.
#[derive(Debug, Clone)]
pub struct SimilarityDistributions {
    pub ground_truth: Histogram,
    pub ui: Histogram,
    pub uu: Histogram,
    /// Mean similarity per series — the headline comparison.
    pub mean_gt: f64,
    pub mean_ui: f64,
    pub mean_uu: f64,
}

/// Compute the Figure 4 distributions for a built SCCF instance.
/// `n_per_list` is the candidate list length considered (the paper
/// averages over each candidate set).
pub fn similarity_distributions<M: InductiveUiModel>(
    sccf: &Sccf<M>,
    split: &LeaveOneOut,
    n_per_list: usize,
    bins: usize,
) -> SimilarityDistributions {
    let (lo, hi) = (-1.0, 1.0);
    let mut gt_h = Histogram::new(lo, hi, bins);
    let mut ui_h = Histogram::new(lo, hi, bins);
    let mut uu_h = Histogram::new(lo, hi, bins);
    let (mut sum_gt, mut sum_ui, mut sum_uu, mut n) = (0.0f64, 0.0f64, 0.0f64, 0u64);

    let model = sccf.model();
    let table = model.item_embeddings();
    for u in split.test_users() {
        let history = split.train_plus_val(u);
        let target = split.test_item(u).expect("test user");
        let rep = model.infer_user(&history);

        let cos_item = |i: u32| sccf_tensor::cosine(&rep, table.row(i as usize)) as f64;

        let gt = cos_item(target);
        gt_h.push(gt);
        sum_gt += gt;

        // UI list (Eq. 10) with history masked
        let mut ui_scores = model.score_by_rep(&rep);
        for &i in &history {
            ui_scores[i as usize] = f32::NEG_INFINITY;
        }
        let ui_top = topk_of_scores(&ui_scores, n_per_list);
        if !ui_top.is_empty() {
            let avg = ui_top.iter().map(|s| cos_item(s.id)).sum::<f64>() / ui_top.len() as f64;
            ui_h.push(avg);
            sum_ui += avg;
        }

        // UU list (Eq. 12)
        let mut uu_scores = sccf.uu_scores(u, &rep);
        for &i in &history {
            uu_scores[i as usize] = 0.0;
        }
        let uu_top: Vec<_> = topk_of_scores(&uu_scores, n_per_list)
            .into_iter()
            .filter(|s| s.score > 0.0)
            .collect();
        if !uu_top.is_empty() {
            let avg = uu_top.iter().map(|s| cos_item(s.id)).sum::<f64>() / uu_top.len() as f64;
            uu_h.push(avg);
            sum_uu += avg;
        }
        n += 1;
    }
    // each histogram received exactly one observation per contributing
    // user, so totals double as denominators
    SimilarityDistributions {
        mean_gt: sum_gt / n.max(1) as f64,
        mean_ui: sum_ui / ui_h.total().max(1) as f64,
        mean_uu: sum_uu / uu_h.total().max(1) as f64,
        ground_truth: gt_h,
        ui: ui_h,
        uu: uu_h,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::SccfConfig;
    use crate::integrator::IntegratorConfig;
    use crate::user_component::UserBasedConfig;
    use rand::Rng;
    use sccf_data::{Dataset, Interaction};
    use sccf_index::FrozenTierMode;
    use sccf_models::{Fism, FismConfig, TrainConfig};

    #[test]
    fn distributions_have_mass_and_bounds() {
        let mut inter = Vec::new();
        let mut rng = sccf_util::rng::rng_for(3, 2);
        for u in 0..20u32 {
            let base = if u < 10 { 0 } else { 10 };
            let mut seen = sccf_util::hash::fx_set();
            let mut t = 0i64;
            while (t as usize) < 6 {
                let item = base + rng.gen_range(0..10u32);
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
        let d = Dataset::from_interactions("t", 20, 20, &inter, None);
        let split = sccf_data::LeaveOneOut::split(&d);
        let fism = Fism::train(
            &split,
            &FismConfig {
                train: TrainConfig {
                    dim: 8,
                    epochs: 10,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        let mut sccf = Sccf::build(
            fism,
            &split,
            SccfConfig {
                user_based: UserBasedConfig {
                    beta: 5,
                    recent_window: 6,
                },
                candidate_n: 10,
                integrator: IntegratorConfig {
                    epochs: 3,
                    ..Default::default()
                },
                threads: 1,
                ui_ann: None,
                frozen_tier: FrozenTierMode::Flat,
            },
        );
        sccf.refresh_for_test(&split);
        let dist = similarity_distributions(&sccf, &split, 10, 20);
        assert_eq!(dist.ground_truth.total(), 20);
        assert!(dist.ui.total() > 0);
        assert!(dist.uu.total() > 0);
        assert!(dist.mean_gt.abs() <= 1.0);
        assert!(dist.mean_ui.abs() <= 1.0 + 1e-9);
        assert!(dist.mean_uu.abs() <= 1.0 + 1e-9);
    }
}
