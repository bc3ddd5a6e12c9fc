//! Offline resharding demo: snapshot a live N-shard fleet and restore
//! it at any other shard count — N→1, N→N, N→2N — from one
//! engine-agnostic artifact.
//!
//! The snapshot is the whole-population per-user history table
//! (`sccf::core::encode_histories`); everything else an engine holds
//! (user vectors, index rows, recent-item rings) is *derived* from it
//! by inference, so `ShardedEngine::restore(sccf, bytes, new_cfg)`
//! re-partitions at load time and the restored fleet is exactly the
//! fleet you would have built from the drained histories directly.
//!
//! ```sh
//! cargo run --release --example reshard
//! ```

use sccf::core::{
    FrozenTierMode, IntegratorConfig, RealtimeEngine, Sccf, SccfConfig, UserBasedConfig,
};
use sccf::data::catalog::{ml1m_sim, Scale};
use sccf::data::synthetic::generate;
use sccf::data::LeaveOneOut;
use sccf::models::{Fism, FismConfig, TrainConfig};
use sccf::serving::{
    events_after, replay_into, RecQuery, RouterKind, ServingApi, ShardedConfig, ShardedEngine,
};

fn main() {
    // --- world + framework ---------------------------------------------
    let mut cfg = ml1m_sim(Scale::Quick);
    cfg.n_users = 800;
    cfg.n_items = 400;
    let gen = generate(&cfg, 23);
    let split = LeaveOneOut::split(&gen.dataset);
    println!("training FISM on {} users ...", split.n_users());
    // Deterministic builds: the same seed yields the same floats, so
    // restored and fresh fleets are comparable bit-for-bit.
    let build = || {
        let fism = Fism::train(
            &split,
            &FismConfig {
                train: TrainConfig {
                    dim: 16,
                    epochs: 3,
                    seed: 7,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        Sccf::build(
            fism,
            &split,
            SccfConfig {
                user_based: UserBasedConfig {
                    beta: 30,
                    recent_window: 15,
                },
                candidate_n: 40,
                integrator: IntegratorConfig {
                    epochs: 3,
                    seed: 7,
                    ..Default::default()
                },
                threads: 1,
                ui_ann: None,
                frozen_tier: FrozenTierMode::Flat,
            },
        )
    };
    let histories: Vec<Vec<u32>> = (0..split.n_users() as u32)
        .map(|u| split.train_plus_val(u))
        .collect();

    // --- a live 3-shard fleet absorbs traffic ---------------------------
    let source_shards = 3usize;
    let mut fleet = ShardedEngine::try_new(
        build(),
        histories,
        ShardedConfig {
            n_shards: source_shards,
            queue_capacity: 256,
            router: RouterKind::Modulo,
        },
    )
    .expect("valid config");
    let traffic: Vec<_> = events_after(&gen.dataset, 0)
        .into_iter()
        .take(2500)
        .collect();
    let n = replay_into(&mut fleet, &traffic).expect("stream ids in range");
    fleet.flush().expect("barrier");
    println!("{source_shards}-shard fleet absorbed {n} live events");

    // --- snapshot: one whole-population artifact ------------------------
    let artifact = fleet.snapshot_state().expect("snapshot");
    println!(
        "snapshot artifact: {} KiB for {} users",
        artifact.len() / 1024,
        split.n_users()
    );
    let probe_users: Vec<u32> = (0..8).collect();
    let source_slates: Vec<Vec<u32>> = fleet
        .recommend_many(&probe_users, &RecQuery::top(5))
        .expect("probe users exist")
        .into_iter()
        .map(|r| r.ids())
        .collect();
    fleet.shutdown();

    // --- restore at N (identical), 1 (plain failover), 2N (scale-out) --
    for target in [source_shards, 1, 2 * source_shards] {
        let mut restored = ShardedEngine::restore(
            build(),
            &artifact,
            ShardedConfig {
                n_shards: target,
                queue_capacity: 256,
                router: RouterKind::Modulo,
            },
        )
        .expect("restore re-partitions at load time");
        let slates: Vec<Vec<u32>> = restored
            .recommend_many(&probe_users, &RecQuery::top(5))
            .expect("probe users exist")
            .into_iter()
            .map(|r| r.ids())
            .collect();
        let identical = slates == source_slates;
        println!(
            "restored at {target} shard(s): user 0 top-5 {:?}{}",
            slates[0],
            if target == source_shards {
                assert!(identical, "same shard count must serve identical slates");
                "  (bit-identical to the source fleet ✓)"
            } else {
                "  (state identical; neighborhoods re-partitioned)"
            }
        );
        restored.shutdown();
    }

    // --- the same artifact also boots a plain single-writer engine ------
    let mut plain = RealtimeEngine::restore(build(), &artifact).expect("plain restore");
    let recs = plain
        .try_recommend(0, &RecQuery::top(5))
        .expect("user 0 exists");
    println!(
        "plain RealtimeEngine from the same artifact: user 0 top-5 {:?}",
        recs.ids()
    );
}
