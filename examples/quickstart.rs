//! Quickstart: generate data, train an inductive UI model, wrap it in
//! SCCF, compare the three scoring views (UI / UU / fused) for one
//! user, and serve a live event through the unified `ServingApi`.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use sccf::core::RealtimeEngine;
use sccf::core::{Sccf, SccfConfig};
use sccf::data::catalog::{ml1m_sim, Scale};
use sccf::data::synthetic::generate;
use sccf::data::LeaveOneOut;
use sccf::eval::{evaluate, EvalTarget};
use sccf::models::{Fism, FismConfig, InductiveUiModel, TrainConfig};
use sccf::serving::{RecQuery, ServingApi};
use sccf::util::topk::topk_of_scores;

fn main() {
    // --- 1. a MovieLens-1M-like synthetic dataset ------------------------
    let mut cfg = ml1m_sim(Scale::Quick);
    cfg.n_users = 300;
    cfg.n_items = 260;
    let data = generate(&cfg, 42).dataset.core_filter(5);
    let split = LeaveOneOut::split(&data);
    let stats = data.stats();
    println!(
        "dataset: {} users × {} items, {} actions (density {:.2}%)",
        stats.n_users,
        stats.n_items,
        stats.n_actions,
        stats.density * 100.0
    );

    // --- 2. train FISM (Eq. 1): inductive, so SCCF-compatible ------------
    let fism = Fism::train(
        &split,
        &FismConfig {
            train: TrainConfig {
                dim: 32,
                epochs: 10,
                ..Default::default()
            },
            ..Default::default()
        },
    );

    // --- 3. build SCCF: user index + user-based component + integrator ---
    let mut sccf = Sccf::build(fism, &split, SccfConfig::default());
    sccf.refresh_for_test(&split);

    // --- 4. inspect one user ---------------------------------------------
    let user = split.test_users()[0];
    let history = split.train_plus_val(user);
    println!("\nuser {user}: history of {} items", history.len());

    let rep = sccf.model().infer_user(&history);
    let neighbors = sccf.neighbors(user, &rep);
    println!(
        "nearest neighbors (Eq. 11): {:?}",
        neighbors
            .iter()
            .take(5)
            .map(|n| (n.id, (n.score * 1000.0).round() / 1000.0))
            .collect::<Vec<_>>()
    );

    let ui_top = topk_of_scores(&sccf.model().score_by_rep(&rep), 5);
    println!(
        "top UI items (Eq. 10):    {:?}",
        ui_top.iter().map(|s| s.id).collect::<Vec<_>>()
    );
    let uu_top = topk_of_scores(&sccf.uu_scores(user, &rep), 5);
    println!(
        "top UU items (Eq. 12):    {:?}",
        uu_top.iter().map(|s| s.id).collect::<Vec<_>>()
    );
    let fused = sccf.recommend(user, &history, 5);
    println!(
        "fused SCCF top-5:         {:?}",
        fused.iter().map(|s| s.id).collect::<Vec<_>>()
    );

    // --- 5. protocol evaluation ------------------------------------------
    let ks = [20usize, 50];
    let base = evaluate(
        sccf.model(),
        &split,
        EvalTarget::Test,
        &ks,
        4,
        "FISM",
        "quickstart",
    );
    let full = evaluate(
        &sccf,
        &split,
        EvalTarget::Test,
        &ks,
        4,
        "FISM-SCCF",
        "quickstart",
    );
    println!("\n              HR@20    NDCG@20   HR@50    NDCG@50");
    println!(
        "FISM        {:.4}   {:.4}    {:.4}   {:.4}",
        base.metrics.hr(20),
        base.metrics.ndcg(20),
        base.metrics.hr(50),
        base.metrics.ndcg(50)
    );
    println!(
        "FISM-SCCF   {:.4}   {:.4}    {:.4}   {:.4}",
        full.metrics.hr(20),
        full.metrics.ndcg(20),
        full.metrics.hr(50),
        full.metrics.ndcg(50)
    );

    // --- 6. serve it: the typed real-time surface ------------------------
    // `ServingApi` is the one interface over the single-writer and the
    // sharded engine; see examples/realtime_stream.rs and
    // examples/sharded_serving.rs for the full story.
    let histories: Vec<Vec<u32>> = (0..split.n_users() as u32)
        .map(|u| split.train_plus_val(u))
        .collect();
    let mut engine = RealtimeEngine::new(sccf, histories);
    let item = fused[0].id;
    // The event updates history, representation and index row (the
    // one inference); the slate that follows reads that row and
    // identifies the neighborhood, so its `infer` reads 0.
    engine.try_ingest(user, item).expect("ids are in range");
    let res = engine
        .try_recommend(user, &RecQuery::top(5))
        .expect("user exists");
    println!(
        "
served a live event; fresh top-5 (infer {:.3} ms, identify {:.3} ms): {:?}",
        res.timing.infer_ms,
        res.timing.identify_ms,
        res.ids()
    );
}
