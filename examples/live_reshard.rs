//! Live resharding demo: scale a serving fleet out N→M **while it
//! keeps absorbing traffic** — no restart, no snapshot reload, no
//! dropped or duplicated event.
//!
//! The fleet routes users through a consistent-hash ring
//! (`RouterKind::Consistent`), so growing from 2 to 4 shards only
//! moves the users whose ring arc changed hands (≈ half of them;
//! a modulo router would move ~3/4). `begin_reshard` enters the
//! migration epoch, then handoff batches interleave with ingest
//! bursts: each `reshard_step` exports one batch of moving users from
//! their old shards and imports them into their new ones over the same
//! FIFO queues events ride, so per-user ordering survives end to end.
//! After quiesce, the fleet's state is bit-identical to what an
//! offline `snapshot_state()` + `restore(.., new_cfg)` of the same
//! histories would have produced — verified live at the end.
//!
//! ```sh
//! cargo run --release --example live_reshard
//! ```

use sccf::core::{FrozenTierMode, IntegratorConfig, Sccf, SccfConfig, UserBasedConfig};
use sccf::data::catalog::{ml1m_sim, Scale};
use sccf::data::synthetic::generate;
use sccf::data::LeaveOneOut;
use sccf::models::{Fism, FismConfig, TrainConfig};
use sccf::serving::{events_after, RecQuery, RouterKind, ServingApi, ShardedConfig, ShardedEngine};

fn main() {
    // --- world + deterministic framework builds -------------------------
    let mut cfg = ml1m_sim(Scale::Quick);
    cfg.n_users = 800;
    cfg.n_items = 400;
    let gen = generate(&cfg, 23);
    let split = LeaveOneOut::split(&gen.dataset);
    println!("training FISM on {} users ...", split.n_users());
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
    let shard_cfg = |n_shards: usize| ShardedConfig {
        n_shards,
        queue_capacity: 256,
        router: RouterKind::Consistent { vnodes: 64 },
    };

    // --- a 2-shard fleet absorbs the first wave of traffic --------------
    let mut fleet =
        ShardedEngine::try_new(build(), histories.clone(), shard_cfg(2)).expect("valid config");
    let traffic: Vec<(u32, u32)> = events_after(&gen.dataset, 0)
        .into_iter()
        .map(|e| (e.user, e.item))
        .take(3000)
        .collect();
    let (wave1, wave2) = traffic.split_at(traffic.len() / 2);
    fleet.ingest_batch(wave1).expect("stream ids in range");
    println!("2-shard fleet absorbed {} events", wave1.len());

    // --- scale out to 4 shards while the second wave flows --------------
    fleet
        .begin_reshard(shard_cfg(4), 64)
        .expect("enter the migration epoch");
    let mut wave2_it = wave2.iter();
    let mut bursts = 0usize;
    while fleet.is_migrating() {
        for &(u, i) in wave2_it.by_ref().take(50) {
            fleet.try_ingest(u, i).expect("mid-migration ingest");
        }
        bursts += 1;
        let remaining = fleet.reshard_step().expect("handoff batch");
        let stats = fleet.serving_stats().expect("stats");
        println!(
            "  handoff batch {bursts}: {} users moved, {remaining} pending, \
             {} events ingested so far",
            stats.migration.migrated_users, stats.events,
        );
    }
    for &(u, i) in wave2_it {
        fleet.try_ingest(u, i).expect("post-migration ingest");
    }
    fleet.flush().expect("barrier");
    let stats = fleet.serving_stats().expect("stats");
    println!(
        "quiesced: {} shards, {} users migrated in {} batches, {} events — none lost, none doubled",
        fleet.n_shards(),
        stats.migration.migrated_users,
        stats.migration.batches,
        stats.events,
    );
    assert_eq!(stats.events, traffic.len() as u64);

    // --- the punchline: live == offline ---------------------------------
    // A twin fleet that saw the same traffic, snapshotted and restored
    // at 4 shards the *offline* way, serves bit-identical slates.
    let probe: Vec<u32> = (0..10).collect();
    let live_slates: Vec<Vec<u32>> = fleet
        .recommend_many(&probe, &RecQuery::top(5))
        .expect("probe users exist")
        .into_iter()
        .map(|r| r.ids())
        .collect();

    let mut twin = ShardedEngine::try_new(build(), histories, shard_cfg(2)).expect("valid config");
    twin.ingest_batch(&traffic).expect("same traffic");
    let artifact = twin.snapshot_state().expect("snapshot");
    twin.shutdown();
    let mut offline =
        ShardedEngine::restore(build(), &artifact, shard_cfg(4)).expect("offline reshard");
    let offline_slates: Vec<Vec<u32>> = offline
        .recommend_many(&probe, &RecQuery::top(5))
        .expect("probe users exist")
        .into_iter()
        .map(|r| r.ids())
        .collect();
    assert_eq!(
        live_slates, offline_slates,
        "live resharding must land on the same state as snapshot + restore"
    );
    println!(
        "live reshard == offline snapshot+restore ✓  (user 0 top-5: {:?})",
        live_slates[0]
    );
    offline.shutdown();
    fleet.shutdown();
}
