//! Operational lifecycle demo: train → persist → reload → serve →
//! snapshot → fail over → scale out.
//!
//! Production recommenders separate *model state* (weights, retrained
//! offline, shipped as artifacts) from *serving state* (per-user
//! histories, mutated on every click). This example exercises both:
//! model weights roundtrip through `save_bytes`/`load_bytes`, the live
//! engine state roundtrips through the snapshot artifact, the failed-
//! over replica serves identical recommendations — and because the
//! artifact is engine-agnostic, the same bytes then boot a *sharded*
//! fleet (scale-out via snapshot, no replay).
//!
//! ```sh
//! cargo run --release --example save_load_serve
//! ```

use sccf::core::{RealtimeEngine, Sccf, SccfConfig};
use sccf::data::catalog::{games_sim, Scale};
use sccf::data::synthetic::generate;
use sccf::data::LeaveOneOut;
use sccf::models::{SasRec, SasRecConfig, TrainConfig};
use sccf::serving::{RecQuery, RouterKind, ServingApi, ShardedConfig, ShardedEngine};

fn main() {
    // --- offline: train and persist the model ---------------------------
    let mut cfg = games_sim(Scale::Quick);
    cfg.n_users = 250;
    cfg.n_items = 200;
    let data = generate(&cfg, 7).dataset.core_filter(5);
    let split = LeaveOneOut::split(&data);
    let model_cfg = SasRecConfig {
        train: TrainConfig {
            dim: 32,
            epochs: 8,
            ..Default::default()
        },
        max_len: 20,
        ..Default::default()
    };
    let sasrec = SasRec::train(&split, &model_cfg);
    let weights = sasrec.save_bytes();
    println!(
        "trained SASRec; weight snapshot = {} KiB",
        weights.len() / 1024
    );

    // --- a fresh process reloads the artifact ----------------------------
    let reloaded = SasRec::load_bytes(split.n_items(), &model_cfg, &weights)
        .expect("weights match the architecture");

    // --- online: build the framework and serve events --------------------
    let mut sccf = Sccf::build(reloaded, &split, SccfConfig::default());
    sccf.refresh_for_test(&split);
    let histories: Vec<Vec<u32>> = (0..split.n_users() as u32)
        .map(|u| split.train_plus_val(u))
        .collect();
    let mut engine = RealtimeEngine::new(sccf, histories);

    for (user, item) in [(0u32, 3u32), (1, 9), (0, 14), (2, 5)] {
        // The Table III form: apply the event, then search the new
        // neighborhood (`try_ingest` applies only).
        let (_, t) = engine
            .try_process_event(user, item % split.n_items() as u32)
            .expect("ids in range");
        println!(
            "event (user {user}, item {item}): infer {:.3} ms, identify {:.3} ms",
            t.infer_ms, t.identify_ms
        );
    }
    let recs_primary = engine
        .try_recommend(0, &RecQuery::top(5))
        .expect("user 0 exists")
        .ids();
    println!("primary replica recommends for user 0: {recs_primary:?}");

    // --- failover: snapshot, restore on a standby, compare ---------------
    let state = engine.snapshot_state().expect("snapshot");
    println!("engine snapshot = {} bytes", state.len());
    let mut standby = RealtimeEngine::restore(engine.into_sccf(), &state)
        .expect("snapshot decodes against the same framework");
    let recs_standby = standby
        .try_recommend(0, &RecQuery::top(5))
        .expect("user 0 exists")
        .ids();
    assert_eq!(
        recs_primary, recs_standby,
        "failover must not change what the user sees"
    );
    println!("standby replica serves identical recommendations ✓");

    // --- scale out: the same artifact boots a sharded fleet --------------
    // The snapshot format is engine-agnostic, so the single-writer
    // replica's state re-partitions straight into worker shards
    // (1 → N resharding; the sharded engine's snapshot goes back the
    // other way, N → 1, or to any other shard count).
    let reloaded = SasRec::load_bytes(split.n_items(), &model_cfg, &weights)
        .expect("weights match the architecture");
    let mut sccf2 = Sccf::build(reloaded, &split, SccfConfig::default());
    sccf2.refresh_for_test(&split);
    let mut fleet = ShardedEngine::restore(
        sccf2,
        &state,
        ShardedConfig {
            n_shards: 2,
            queue_capacity: 128,
            router: RouterKind::Modulo,
        },
    )
    .expect("the plain snapshot re-partitions into shards");
    let recs_fleet = fleet
        .try_recommend(0, &RecQuery::top(5))
        .expect("user 0 exists")
        .ids();
    println!("2-shard fleet restored from the same artifact; user 0 sees {recs_fleet:?}");
    fleet.shutdown();
}
