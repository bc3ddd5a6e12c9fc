//! End-to-end integration: synthetic data with strong neighborhood
//! structure → trained UI models → SCCF → protocol evaluation.
//!
//! These tests assert the paper's *qualitative* claims on data where the
//! exploited structure is guaranteed to exist:
//! RQ1 — SCCF does not lose to its base UI model and the UU component
//! carries real signal; the personalized models beat Pop.

use sccf::core::{IntegratorConfig, Sccf, SccfConfig, UserBasedConfig};
use sccf::data::catalog::Scale;
use sccf::data::synthetic::{generate, SyntheticConfig};
use sccf::data::LeaveOneOut;
use sccf::eval::{evaluate, EvalTarget};
use sccf::models::{Fism, FismConfig, Pop, TrainConfig};

/// Tight groups, mild drift: the UU signal is strong by construction.
fn structured_cfg() -> SyntheticConfig {
    SyntheticConfig {
        name: "e2e".into(),
        n_users: 240,
        n_items: 200,
        n_categories: 12,
        n_groups: 8,
        mean_len: 24.0,
        min_len: 8,
        user_scatter: 0.15,
        drift: 0.03,
        jump_prob: 0.02,
        ..sccf::data::catalog::ml1m_sim(Scale::Quick)
    }
}

struct World {
    split: LeaveOneOut,
    sccf: Sccf<Fism>,
    pop: Pop,
}

fn build_world(seed: u64) -> World {
    let data = generate(&structured_cfg(), seed).dataset.core_filter(5);
    let split = LeaveOneOut::split(&data);
    let train_seqs = (0..split.n_users() as u32).map(|u| split.train_seq(u).to_vec());
    let pop = Pop::fit_sequences(split.n_items(), train_seqs);
    let fism = Fism::train(
        &split,
        &FismConfig {
            train: TrainConfig {
                dim: 24,
                epochs: 20,
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
                beta: 40,
                recent_window: 15,
            },
            candidate_n: 50,
            integrator: IntegratorConfig::default(),
            threads: 4,
            ui_ann: None,
            frozen_tier: sccf_core::FrozenTierMode::Flat,
        },
    );
    sccf.refresh_for_test(&split);
    World { split, sccf, pop }
}

#[test]
fn sccf_beats_or_matches_its_base_ui_model() {
    let w = build_world(4242);
    let ks = [20usize, 50];
    let base = evaluate(
        w.sccf.model(),
        &w.split,
        EvalTarget::Test,
        &ks,
        4,
        "FISM",
        "e2e",
    );
    let full = evaluate(
        &w.sccf,
        &w.split,
        EvalTarget::Test,
        &ks,
        4,
        "FISM-SCCF",
        "e2e",
    );
    // RQ1 shape: the fused model should improve (or at worst roughly tie)
    // on NDCG — allow a 3% relative slack for seed noise.
    assert!(
        full.metrics.ndcg(50) >= base.metrics.ndcg(50) * 0.97,
        "SCCF NDCG@50 {} vs base {}",
        full.metrics.ndcg(50),
        base.metrics.ndcg(50)
    );
    assert!(
        full.metrics.hr(50) >= base.metrics.hr(50) * 0.97,
        "SCCF HR@50 {} vs base {}",
        full.metrics.hr(50),
        base.metrics.hr(50)
    );
}

#[test]
fn uu_component_carries_real_signal() {
    let w = build_world(777);
    let ks = [50usize];
    let uu = evaluate(
        &w.sccf.uu_scorer(),
        &w.split,
        EvalTarget::Test,
        &ks,
        4,
        "FISM-UU",
        "e2e",
    );
    let pop = evaluate(&w.pop, &w.split, EvalTarget::Test, &ks, 4, "Pop", "e2e");
    // Neighborhood recommendations must clearly beat non-personalized
    // popularity on group-structured data.
    assert!(
        uu.metrics.ndcg(50) > pop.metrics.ndcg(50),
        "UU NDCG@50 {} vs Pop {}",
        uu.metrics.ndcg(50),
        pop.metrics.ndcg(50)
    );
}

#[test]
fn personalized_beats_popularity_on_structured_data() {
    let w = build_world(31337);
    let ks = [20usize];
    let fism = evaluate(
        w.sccf.model(),
        &w.split,
        EvalTarget::Test,
        &ks,
        4,
        "FISM",
        "e2e",
    );
    let pop = evaluate(&w.pop, &w.split, EvalTarget::Test, &ks, 4, "Pop", "e2e");
    assert!(
        fism.metrics.ndcg(20) > pop.metrics.ndcg(20),
        "FISM NDCG@20 {} vs Pop {}",
        fism.metrics.ndcg(20),
        pop.metrics.ndcg(20)
    );
}

#[test]
fn sccf_scores_respect_candidate_contract() {
    use sccf::models::Recommender;
    let w = build_world(5);
    let u = w.split.test_users()[0];
    let history = w.split.train_plus_val(u);
    let scores = w.sccf.score_all(u, &history);
    // finite scores only on the candidate union; everything else −∞
    let finite = scores.iter().filter(|s| s.is_finite()).count();
    assert!(finite > 0);
    assert!(finite <= 2 * w.sccf.config().candidate_n);
    // candidates never include the history
    for &i in &history {
        assert_eq!(scores[i as usize], f32::NEG_INFINITY);
    }
}
