//! Real-time streaming demo (§III-C.2 / Table III): replay live events
//! through the engine, watch a user's neighborhood follow an interest
//! shift, and report the infer/identify latency split.
//!
//! ```sh
//! cargo run --release --example realtime_stream
//! ```

use sccf::core::{RealtimeEngine, Sccf, SccfConfig};
use sccf::data::catalog::{taobao_sim, Scale};
use sccf::data::synthetic::generate;
use sccf::data::LeaveOneOut;
use sccf::models::{InductiveUiModel, SasRec, SasRecConfig, TrainConfig};
use sccf::serving::{RecQuery, ServingApi};

fn main() {
    // --- a drift-heavy Taobao-like stream ---------------------------------
    let mut cfg = taobao_sim(Scale::Quick);
    cfg.n_users = 300;
    cfg.n_items = 400;
    // tighter category structure than raw taobao-sim so the adaptation
    // effect is visible within a short demo
    cfg.n_categories = 16;
    cfg.drift = 0.06;
    cfg.jump_prob = 0.06;
    let gen = generate(&cfg, 7);
    let data = &gen.dataset;
    let split = LeaveOneOut::split(data);

    // --- train SASRec, the sequential inductive model ---------------------
    println!("training SASRec ...");
    let sasrec = SasRec::train(
        &split,
        &SasRecConfig {
            train: TrainConfig {
                dim: 32,
                epochs: 15,
                ..Default::default()
            },
            max_len: 50,
            ..Default::default()
        },
    );

    let mut sccf = Sccf::build(sasrec, &split, SccfConfig::default());
    sccf.refresh_for_test(&split);
    let histories: Vec<Vec<u32>> = (0..split.n_users() as u32)
        .map(|u| split.train_plus_val(u))
        .collect();
    let mut engine = RealtimeEngine::new(sccf, histories);

    // --- watch one user adopt a brand-new category -------------------------
    let user = 0u32;
    let target_cat = {
        // a category the user has never touched
        let touched: sccf::util::FxHashSet<u32> = engine
            .history(user)
            .iter()
            .map(|&i| data.category_of(i))
            .collect();
        (0..data.n_categories() as u32)
            .find(|c| !touched.contains(c))
            .unwrap_or(0)
    };
    let new_items: Vec<u32> = (0..data.n_items() as u32)
        .filter(|&i| data.category_of(i) == target_cat)
        .take(12)
        .collect();

    let query = RecQuery::top(10);
    let before = engine
        .try_recommend(user, &query)
        .expect("user exists")
        .items;
    let cat_share = |recs: &[sccf::util::topk::Scored]| {
        recs.iter()
            .filter(|r| data.category_of(r.id) == target_cat)
            .count()
    };
    // mean UI rank of the new category's items: the crispest view of
    // real-time adaptation (lower = retrieved earlier)
    let mean_cat_rank = |engine: &RealtimeEngine<SasRec>| {
        let rep = engine.sccf().model().infer_user(engine.history(user));
        let scores = engine.sccf().model().score_by_rep(&rep);
        let ranks: Vec<usize> = (0..data.n_items() as u32)
            .filter(|&i| data.category_of(i) == target_cat)
            .map(|i| sccf::util::topk::rank_of(&scores, i))
            .collect();
        ranks.iter().sum::<usize>() as f64 / ranks.len().max(1) as f64
    };
    let rank_before = mean_cat_rank(&engine);
    println!(
        "\nuser {user} adopts category {target_cat}; recs from that category before: {}/10 \
         (mean UI rank of category items: {rank_before:.0}/{})",
        cat_share(&before),
        data.n_items()
    );

    for &item in &new_items {
        // The Table III form — infer, then identify — per event; the
        // serving write path (`try_ingest`) stops after the index row.
        let (_, t) = engine.try_process_event(user, item).expect("ids in range");
        println!(
            "  event item {item:>4}  infer {:.3} ms  identify {:.3} ms",
            t.infer_ms, t.identify_ms
        );
    }
    let after = engine
        .try_recommend(user, &query)
        .expect("user exists")
        .items;
    let rank_after = mean_cat_rank(&engine);
    println!(
        "recs from category {target_cat} after the shift: {}/10 \
         (mean UI rank of category items: {rank_after:.0}, was {rank_before:.0} — \
         the representation follows the shift without any retraining)",
        cat_share(&after)
    );
    assert!(
        rank_after < rank_before,
        "real-time inference must move the new category up the ranking"
    );

    // --- replay bulk traffic and report Table III-style latency ------------
    println!("\nreplaying one event per user ...");
    let tail: Vec<(u32, u32)> = split
        .test_users()
        .into_iter()
        .filter_map(|u| split.test_item(u).map(|item| (u, item)))
        .collect();
    for &(u, item) in &tail {
        engine
            .try_process_event(u, item)
            .expect("test ids are in range");
    }
    let t = engine.timings();
    println!("per-event latency over {} events:", t.infer.count());
    println!(
        "  inferring  : {:.3} ms mean (max {:.3})",
        t.infer.mean_ms(),
        t.infer.max_ms()
    );
    println!(
        "  identifying: {:.3} ms mean (max {:.3})",
        t.identify.mean_ms(),
        t.identify.max_ms()
    );
    println!("  total      : {:.3} ms mean", t.mean_total_ms());
    let d = engine.sccf().model().dim();
    println!("\n(user vectors are {d}-dimensional; identifying scans the user index, which is why it stays flat as catalogs grow — the paper's Table III argument)");
}
