//! Edge-case tests for the SCCF framework assembly: degenerate users,
//! candidate-union hygiene, and scorer consistency.

use rand::Rng;
use sccf_core::{FrozenTierMode, IntegratorConfig, Sccf, SccfConfig, UserBasedConfig};
use sccf_data::{Dataset, Interaction, LeaveOneOut};
use sccf_models::{Fism, FismConfig, InductiveUiModel, Recommender, TrainConfig};

fn two_group_world(n_users: u32, n_items: u32, len: usize, seed: u64) -> Dataset {
    let mut rng = sccf_util::rng::rng_for(seed, 4);
    let mut inter = Vec::new();
    for u in 0..n_users {
        let base = if u < n_users / 2 { 0 } else { n_items / 2 };
        let span = n_items / 2;
        let mut seen = sccf_util::hash::fx_set();
        let mut t = 0i64;
        while (t as usize) < len {
            let item = base + rng.gen_range(0..span);
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
    Dataset::from_interactions("edges", n_users as usize, n_items as usize, &inter, None)
}

fn build(seed: u64) -> (LeaveOneOut, Sccf<Fism>) {
    let data = two_group_world(24, 40, 6, seed);
    let split = LeaveOneOut::split(&data);
    let fism = Fism::train(
        &split,
        &FismConfig {
            train: TrainConfig {
                dim: 8,
                epochs: 6,
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
                beta: 8,
                recent_window: 6,
            },
            candidate_n: 15,
            integrator: IntegratorConfig {
                epochs: 4,
                ..Default::default()
            },
            threads: 1,
            ui_ann: None,
            frozen_tier: FrozenTierMode::Flat,
        },
    );
    sccf.refresh_for_test(&split);
    (split, sccf)
}

#[test]
fn candidate_union_never_contains_history_or_duplicates() {
    let (split, sccf) = build(1);
    for u in split.test_users() {
        let history = split.train_plus_val(u);
        let cand = sccf.candidate_features(u, &history);
        let hist: sccf_util::FxHashSet<u32> = history.iter().copied().collect();
        let mut seen = sccf_util::hash::fx_set();
        for &i in &cand.items {
            assert!(!hist.contains(&i), "user {u}: history item {i} in union");
            assert!(seen.insert(i), "user {u}: duplicate candidate {i}");
        }
        assert_eq!(cand.items.len(), cand.ui_scores.len());
        assert_eq!(cand.items.len(), cand.uu_scores.len());
        assert!(cand.items.len() <= 2 * sccf.config().candidate_n);
    }
}

#[test]
fn empty_history_user_degrades_gracefully() {
    let (_, sccf) = build(2);
    // a user with no history: zero representation, no UI signal
    let cand = sccf.candidate_features(0, &[]);
    // must not panic; fused scoring must also hold up
    let recs = sccf.recommend(0, &[], 5);
    assert!(recs.len() <= 5);
    let _ = cand.len();
}

#[test]
fn recommend_is_sorted_and_bounded() {
    let (split, sccf) = build(3);
    let u = split.test_users()[0];
    let history = split.train_plus_val(u);
    let recs = sccf.recommend(u, &history, 7);
    assert!(recs.len() <= 7);
    assert!(recs.windows(2).all(|w| w[0].score >= w[1].score));
}

#[test]
fn score_all_agrees_with_recommend_ordering() {
    let (split, sccf) = build(4);
    let u = split.test_users()[0];
    let history = split.train_plus_val(u);
    let scores = sccf.score_all(u, &history);
    let recs = sccf.recommend(u, &history, 5);
    // the top recommend entry must be the argmax of score_all
    let argmax = scores
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1).then(b.0.cmp(&a.0)))
        .map(|(i, _)| i as u32)
        .unwrap();
    assert_eq!(recs[0].id, argmax);
}

#[test]
fn uu_scorer_matches_manual_pipeline() {
    let (split, sccf) = build(5);
    let u = split.test_users()[0];
    let history = split.train_plus_val(u);
    let rep = sccf.model().infer_user(&history);
    let manual = sccf.uu_scores(u, &rep);
    let via_scorer = {
        use sccf_eval::Scorer;
        sccf.uu_scorer().score(u, &history)
    };
    assert_eq!(manual, via_scorer);
}

#[test]
fn neighbors_are_deterministic() {
    let (split, sccf) = build(6);
    let u = split.test_users()[0];
    let rep = sccf.model().infer_user(&split.train_plus_val(u));
    let a: Vec<u32> = sccf.neighbors(u, &rep).iter().map(|s| s.id).collect();
    let b: Vec<u32> = sccf.neighbors(u, &rep).iter().map(|s| s.id).collect();
    assert_eq!(a, b);
}

#[test]
fn sccf_name_reflects_base_model() {
    let (_, sccf) = build(7);
    assert_eq!(sccf.name(), "FISM-SCCF");
    assert_eq!(sccf.n_items(), 40);
}
