//! Sharded multi-writer serving demo, driven entirely through the
//! unified `ServingApi`: partition users across worker shards, replay a
//! live event stream, batch recommendation requests, read the unified
//! stats, then snapshot the fleet and reshard it offline (4 → 8
//! workers) without losing a single event.
//!
//! ```sh
//! cargo run --release --example sharded_serving
//! ```

use sccf::core::{IntegratorConfig, Sccf, SccfConfig, UserBasedConfig};
use sccf::data::catalog::{ml1m_sim, Scale};
use sccf::data::synthetic::generate;
use sccf::data::LeaveOneOut;
use sccf::models::{Fism, FismConfig, TrainConfig};
use sccf::serving::{
    events_after, replay_into, HashRing, RecQuery, RouterKind, ServingApi, ShardedConfig,
    ShardedEngine,
};
use sccf::util::timer::Stopwatch;

fn main() {
    // --- a mid-sized world: the neighbor scan dominates a slate --------
    let mut cfg = ml1m_sim(Scale::Quick);
    cfg.n_users = 2000;
    cfg.n_items = 600;
    let gen = generate(&cfg, 11);
    let data = &gen.dataset;
    let split = LeaveOneOut::split(data);

    println!("training FISM on {} users ...", split.n_users());
    let fism = Fism::train(
        &split,
        &FismConfig {
            train: TrainConfig {
                dim: 32,
                epochs: 3,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let build = |fism| {
        Sccf::build(
            fism,
            &split,
            SccfConfig {
                user_based: UserBasedConfig {
                    beta: 50,
                    recent_window: 15,
                },
                candidate_n: 50,
                integrator: IntegratorConfig {
                    epochs: 3,
                    ..Default::default()
                },
                ..SccfConfig::default()
            },
        )
    };
    let sccf = build(fism);
    let histories: Vec<Vec<u32>> = (0..split.n_users() as u32)
        .map(|u| split.train_plus_val(u))
        .collect();

    // --- partition users across 4 shard workers ------------------------
    let n_shards = 4;
    let ring = HashRing::modulo(n_shards);
    let mut engine = ShardedEngine::try_new(
        sccf,
        histories,
        ShardedConfig {
            n_shards,
            queue_capacity: 512,
            router: RouterKind::Modulo,
        },
    )
    .expect("valid shard config");
    println!(
        "sharded engine up: {} workers, user 0 → shard {}, user 1 → shard {}",
        engine.n_shards(),
        ring.route(0),
        ring.route(1),
    );

    // --- replay "live traffic": everything after each user's first
    // interaction (ts > 0), in global timestamp order ------------------
    let events = events_after(data, 0);
    let replay: Vec<_> = events.iter().take(4000).cloned().collect();
    println!("replaying {} events through the router ...", replay.len());
    let sw = Stopwatch::start();
    let ingested = replay_into(&mut engine, &replay).expect("stream ids are in range");
    engine
        .flush()
        .expect("barrier: every queued event processed");
    let ms = sw.elapsed_ms();
    println!(
        "ingested + drained {ingested} events in {ms:.0} ms  ({:.0} events/sec across {n_shards} shards)",
        ingested as f64 / (ms / 1000.0),
    );

    // --- batched recommendations: one fan-out wave, owning shards serve
    let users = [0u32, 1, 2];
    let slates = engine
        .recommend_many(&users, &RecQuery::top(5))
        .expect("users exist");
    for (&user, slate) in users.iter().zip(&slates) {
        println!(
            "user {user} (shard {}): top-5 {:?}  (infer {:.3} ms, identify {:.3} ms)",
            ring.route(user),
            slate.ids(),
            slate.timing.infer_ms,
            slate.timing.identify_ms,
        );
    }

    // --- unified stats: one shape for any engine kind ------------------
    let stats = engine.serving_stats().expect("stats");
    println!("\nunified ServingStats (per-event write path, merged + per shard):");
    println!(
        "  fleet: {:>5} events, {} recommends, infer {:.2} µs, index update {:.2} µs / event",
        stats.events,
        stats.recommends,
        stats.timings.infer.mean_ms() * 1e3,
        stats.timings.identify.mean_ms() * 1e3,
    );
    for r in &stats.shards {
        println!(
            "  shard {}: {:>5} events, {} recommends, infer {:.2} µs, index update {:.2} µs / event",
            r.shard,
            r.events,
            r.recommends,
            r.timings.infer.mean_ms() * 1e3,
            r.timings.identify.mean_ms() * 1e3,
        );
    }
    assert_eq!(
        stats.events,
        replay.len() as u64,
        "every event must be accounted for"
    );

    // --- offline reshard: snapshot the fleet, restore at 2× the shards.
    // The artifact is the whole-population history table; restore
    // re-partitions it under the new config — no replay, no downtime
    // beyond the restart.
    let artifact = engine.snapshot_state().expect("snapshot");
    println!(
        "\nsnapshot: {} KiB; resharding {n_shards} → {} workers ...",
        artifact.len() / 1024,
        2 * n_shards
    );
    let recs_before = engine
        .try_recommend(0, &RecQuery::top(5))
        .expect("user 0")
        .ids();
    let (mut engines, _) = engine.shutdown_into_engines();
    let last = engines.pop().expect("at least one shard");
    drop(engines); // release the other shards' Arc<SccfShared> refs first
    let fism = last.into_sccf().into_model();

    let mut resharded = ShardedEngine::restore(
        build(fism),
        &artifact,
        ShardedConfig {
            n_shards: 2 * n_shards,
            queue_capacity: 512,
            router: RouterKind::Modulo,
        },
    )
    .expect("reshard restore");
    let recs_after = resharded
        .try_recommend(0, &RecQuery::top(5))
        .expect("user 0")
        .ids();
    println!(
        "user 0 top-5 before reshard {recs_before:?} / after {recs_after:?} \
         (neighborhoods are per-shard, so slates can shift — state did not)"
    );
    let reports = resharded.shutdown();
    println!(
        "resharded fleet up and shut down cleanly: {} workers",
        reports.len()
    );
}
