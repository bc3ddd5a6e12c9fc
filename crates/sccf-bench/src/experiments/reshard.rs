//! `bench-reshard`: ingest throughput before, during and after a live
//! N→M reshard.

use sccf_core::Sccf;
use sccf_data::catalog::Scale;
use sccf_models::Fism;
use sccf_serving::{RouterKind, ServingApi, ShardedConfig, ShardedEngine};
use sccf_util::timer::Stopwatch;
use sccf_util::{Json, Table};

use super::BenchArtifact;
use crate::harness::{event_at, serving_sccf_config, serving_world, HarnessConfig, WorldShape};

/// The live-resharding measurement: a consistent-router fleet absorbs a
/// steady event stream, scales out N→M *without stopping ingestion*
/// (handoff batches interleaved with ingest bursts), then keeps
/// absorbing on the target shape. Three phases, one workload:
///
/// * **pre** — steady state on N shards (the baseline);
/// * **during** — the migration epoch: ingest bursts alternate with
///   `reshard_step` batches, so the wall clock pays for both — "no
///   full-stop gap" means this rate stays within the same order as
///   steady state, and the max single-ingest stall stays bounded by
///   one handoff batch;
/// * **post** — steady state on M shards after quiesce (the acceptance
///   target: within 10% of pre, typically *above* it since scale-out
///   shrinks per-shard neighbor scans).
pub fn bench_reshard(h: &HarnessConfig) -> BenchArtifact {
    let (n_users, n_items, phase_events) = match h.scale {
        Scale::Quick => (2500usize, 600usize, 3000usize),
        Scale::Full => (10_000, 1200, 6000),
    };
    const FROM_SHARDS: usize = 2;
    const TO_SHARDS: usize = 4;
    const HANDOFF_BATCH: usize = 128;
    const BURST: usize = 100;

    let shape = WorldShape {
        n_users,
        n_items,
        n_categories: 24,
        mean_len: 18.0,
        min_len: 6,
        dim: 16,
        epochs: 2,
    };
    let world = serving_world(&shape, h.seed);
    let (n_users, n_items) = (world.split.n_users(), world.split.n_items());
    let sccf_cfg = serving_sccf_config(h.threads, h.seed);
    let sccf = Sccf::build(world.fism, &world.split, sccf_cfg);
    let shard_cfg = |n_shards: usize| ShardedConfig {
        n_shards,
        queue_capacity: 1024,
        router: RouterKind::Consistent { vnodes: 64 },
    };
    let mut engine = ShardedEngine::try_new(sccf, world.histories, shard_cfg(FROM_SHARDS))
        .expect("valid shard config");
    let event = |k: usize| event_at(k, n_users, n_items);
    let mut cursor = 0usize;

    // --- warmup + pre-reshard steady state -----------------------------
    for k in 0..500 {
        let (u, i) = event(k);
        engine.try_ingest(u, i).expect("warmup ids in range");
    }
    cursor += 500;
    engine.flush().expect("barrier");
    let phase = |engine: &mut ShardedEngine<Fism>, cursor: &mut usize| -> f64 {
        let sw = Stopwatch::start();
        for k in *cursor..*cursor + phase_events {
            let (u, i) = event(k);
            engine.try_ingest(u, i).expect("stream ids in range");
        }
        *cursor += phase_events;
        engine.flush().expect("barrier");
        phase_events as f64 / (sw.elapsed_ms() / 1000.0)
    };
    let pre_events_per_sec = phase(&mut engine, &mut cursor);

    // --- the migration: ingest bursts interleaved with handoff batches -
    eprintln!("[bench-reshard] live reshard {FROM_SHARDS}→{TO_SHARDS} under load ...");
    // Longest single `try_ingest` / handoff batch seen during the epoch:
    // the router blocks for at most one batch (export + import).
    let mut max_ingest_stall_ms = 0.0f64;
    let mut max_batch_ms = 0.0f64;
    let mut during_events = 0usize;
    engine
        .begin_reshard(shard_cfg(TO_SHARDS), HANDOFF_BATCH)
        .expect("begin live reshard");
    let sw_during = Stopwatch::start();
    while engine.is_migrating() {
        for k in cursor..cursor + BURST {
            let (u, i) = event(k);
            let sw = Stopwatch::start();
            engine.try_ingest(u, i).expect("stream ids in range");
            max_ingest_stall_ms = max_ingest_stall_ms.max(sw.elapsed_ms());
        }
        cursor += BURST;
        during_events += BURST;
        let sw = Stopwatch::start();
        engine.reshard_step().expect("handoff batch");
        max_batch_ms = max_batch_ms.max(sw.elapsed_ms());
    }
    engine.flush().expect("barrier");
    let during_events_per_sec = during_events as f64 / (sw_during.elapsed_ms() / 1000.0);

    // --- post-reshard steady state on the target shape ------------------
    let post_events_per_sec = phase(&mut engine, &mut cursor);

    let stats = engine.serving_stats().expect("stats");
    assert_eq!(
        stats.events, cursor as u64,
        "live reshard must account for every ingested event exactly once"
    );
    let (moved_users, batches) = (stats.migration.migrated_users, stats.migration.batches);
    engine.shutdown();

    let mut t = Table::new(
        format!(
            "Live resharding {FROM_SHARDS}→{TO_SHARDS} under load ({n_users} users, {n_items} items, \
             {phase_events} events/phase, {HANDOFF_BATCH}-user handoff batches)"
        ),
        &["phase", "events/sec", "vs pre", "notes"],
    );
    let ratio = |x: f64| {
        if pre_events_per_sec > 0.0 {
            format!("{:.2}x", x / pre_events_per_sec)
        } else {
            "-".to_string()
        }
    };
    t.push(&[
        "pre (steady, N shards)".to_string(),
        format!("{pre_events_per_sec:.0}"),
        "1.00x".to_string(),
        String::new(),
    ]);
    t.push(&[
        "during migration".to_string(),
        format!("{during_events_per_sec:.0}"),
        ratio(during_events_per_sec),
        format!(
            "{moved_users} users in {batches} batches; max ingest stall {max_ingest_stall_ms:.2} ms, \
             max batch {max_batch_ms:.2} ms"
        ),
    ]);
    t.push(&[
        "post (steady, M shards)".to_string(),
        format!("{post_events_per_sec:.0}"),
        ratio(post_events_per_sec),
        String::new(),
    ]);

    let over_pre = |x: f64| Json::num(x / pre_events_per_sec, 3);
    let fields = vec![
        ("n_users", Json::int(n_users)),
        ("n_items", Json::int(n_items)),
        ("from_shards", Json::int(FROM_SHARDS)),
        ("to_shards", Json::int(TO_SHARDS)),
        ("handoff_batch", Json::int(HANDOFF_BATCH)),
        ("phase_events", Json::int(phase_events)),
        ("moved_users", Json::int(moved_users)),
        ("batches", Json::int(batches)),
        ("pre_events_per_sec", Json::num(pre_events_per_sec, 1)),
        ("during_events_per_sec", Json::num(during_events_per_sec, 1)),
        ("post_events_per_sec", Json::num(post_events_per_sec, 1)),
        ("during_over_pre", over_pre(during_events_per_sec)),
        ("post_over_pre", over_pre(post_events_per_sec)),
        ("max_ingest_stall_ms", Json::num(max_ingest_stall_ms, 3)),
        ("max_batch_ms", Json::num(max_batch_ms, 3)),
    ];
    let mut a = BenchArtifact::new("BENCH_reshard.json", fields, vec![t]);
    a.require_keys(
        "",
        "pre_events_per_sec during_events_per_sec post_events_per_sec during_over_pre \
         post_over_pre moved_users batches max_ingest_stall_ms max_batch_ms",
    );
    a.check(
        during_events_per_sec > 0.0,
        "ingestion must continue during migration",
    );
    a.check(moved_users > 0, "the reshard must actually migrate users");
    a
}
