//! `bench-recovery`: the durability layer's cost model.

use sccf_core::Sccf;
use sccf_data::catalog::Scale;
use sccf_models::Fism;
use sccf_serving::{DurabilityConfig, RouterKind, ServingApi, ShardedConfig, ShardedEngine};
use sccf_util::timer::Stopwatch;
use sccf_util::{FxHashSet, Json, Table};

use super::BenchArtifact;
use crate::harness::{event_at, serving_sccf_config, serving_world, HarnessConfig, WorldShape};

/// One measured crash-recovery point.
struct RecoveryPoint {
    /// WAL records replayed past the checkpoint watermark.
    replay_records: u64,
    /// Total WAL bytes scanned across all shard files.
    wal_bytes: u64,
    /// Wall time of `ShardedEngine::recover` (checkpoint load + scan +
    /// replay + fleet rebuild).
    recover_ms: f64,
    /// `replay_records / recover_ms`, 0 when the WAL was empty.
    records_per_sec: f64,
}

/// The durability cost model behind `docs/OPERATIONS.md`: how long a
/// crashed fleet takes to come back as a function of its WAL replay
/// debt, and how incremental checkpoints scale with the write rate.
///
/// * **Recovery** — one fleet per point: enable durability, ingest
///   `replay` events past the epoch-0 checkpoint, `wal_sync`, drop the
///   fleet (a crash with a clean tail — corruption handling is pinned
///   by the chaos suite, not timed here), then time
///   [`ShardedEngine::recover`]. Replay dominates: checkpoint load is
///   O(population), replay O(debt), so `records_per_sec` is the number
///   to size `checkpoint_every_events` against a recovery-time budget.
/// * **Checkpoint sizing** — on a separate fleet, alternate
///   fixed-size write bursts with `checkpoint()` and record bytes per
///   epoch: incremental exports scale with *distinct users written
///   since the last epoch*, not with the population.
pub fn bench_recovery(h: &HarnessConfig) -> BenchArtifact {
    let (n_users, n_items, replay_depths, bursts) = match h.scale {
        Scale::Quick => (
            2500usize,
            600usize,
            [0u64, 1_000, 4_000, 16_000],
            [250u64, 1_000, 4_000],
        ),
        Scale::Full => (
            10_000,
            1200,
            [0, 4_000, 16_000, 64_000],
            [1_000, 4_000, 16_000],
        ),
    };
    const SHARDS: usize = 2;
    const FSYNC_EVERY: u32 = 256;

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
    let (split, histories) = (&world.split, &world.histories);
    let (n_users, n_items) = (split.n_users(), split.n_items());
    let model_bytes = world.fism.save_bytes();
    let build_sccf = || {
        let fism = Fism::load_bytes(n_items, &world.fism_cfg, &model_bytes)
            .expect("own model bytes always rehydrate");
        Sccf::build(fism, split, serving_sccf_config(h.threads, h.seed))
    };
    let shard_cfg = ShardedConfig {
        n_shards: SHARDS,
        queue_capacity: 1024,
        router: RouterKind::Consistent { vnodes: 64 },
    };
    let durable = |dir: &std::path::Path| DurabilityConfig {
        fsync_every: FSYNC_EVERY,
        ..DurabilityConfig::new(dir)
    };
    let scratch = std::env::temp_dir().join(format!("sccf_bench_recovery_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);

    // --- recovery time vs WAL replay depth ------------------------------
    let mut points = Vec::with_capacity(replay_depths.len());
    let mut full_checkpoint_bytes = 0u64;
    for (i, &replay) in replay_depths.iter().enumerate() {
        eprintln!("[bench-recovery] replay depth {replay} ...");
        let dir = scratch.join(format!("replay-{i}"));
        let mut engine = ShardedEngine::try_new(build_sccf(), histories.clone(), shard_cfg.clone())
            .expect("valid shard config");
        engine
            .enable_durability(durable(&dir))
            .expect("fresh durability dir");
        for k in 0..replay as usize {
            let (u, it) = event_at(k, n_users, n_items);
            engine.try_ingest(u, it).expect("stream ids in range");
        }
        engine.wal_sync().expect("durability enabled");
        let stats = engine.serving_stats().expect("stats");
        full_checkpoint_bytes = stats.durability.last_checkpoint_bytes;
        let wal_bytes = stats.durability.wal_bytes;
        engine.shutdown();

        // The model/integrator state is an input to recovery, not part
        // of it — build outside the timed region.
        let sccf = build_sccf();
        let sw = Stopwatch::start();
        let (recovered, rec) = ShardedEngine::recover(sccf, shard_cfg.clone(), durable(&dir))
            .expect("clean-tail recovery");
        let recover_ms = sw.elapsed_ms();
        assert_eq!(
            rec.replayed.len() as u64,
            replay,
            "clean-tail crash must replay every synced record"
        );
        recovered.shutdown();
        points.push(RecoveryPoint {
            replay_records: replay,
            wal_bytes,
            recover_ms,
            records_per_sec: if recover_ms > 0.0 {
                replay as f64 / (recover_ms / 1000.0)
            } else {
                0.0
            },
        });
    }

    // --- checkpoint size vs write rate ----------------------------------
    let dir = scratch.join("checkpoint-sizing");
    let mut engine = ShardedEngine::try_new(build_sccf(), histories.clone(), shard_cfg.clone())
        .expect("valid shard config");
    engine
        .enable_durability(durable(&dir))
        .expect("fresh durability dir");
    let mut cursor = 0usize;
    // (burst events, distinct dirty users, incremental checkpoint bytes)
    let mut incremental: Vec<(u64, u64, u64)> = Vec::with_capacity(bursts.len());
    for &burst in &bursts {
        let mut touched = FxHashSet::default();
        for k in cursor..cursor + burst as usize {
            let (u, it) = event_at(k, n_users, n_items);
            touched.insert(u);
            engine.try_ingest(u, it).expect("stream ids in range");
        }
        cursor += burst as usize;
        engine.checkpoint().expect("no epoch in flight");
        let stats = engine.serving_stats().expect("stats");
        incremental.push((
            burst,
            touched.len() as u64,
            stats.durability.last_checkpoint_bytes,
        ));
    }
    engine.shutdown();
    let _ = std::fs::remove_dir_all(&scratch);

    let mut t = Table::new(
        format!(
            "Crash recovery and checkpoint sizing ({n_users} users, {n_items} items, \
             {SHARDS} shards, fsync_every={FSYNC_EVERY})"
        ),
        &["measurement", "input", "result", "notes"],
    );
    for p in &points {
        t.push(&[
            "recover".to_string(),
            format!("{} replay records", p.replay_records),
            format!("{:.1} ms", p.recover_ms),
            format!(
                "{:.0} records/sec, {} WAL bytes",
                p.records_per_sec, p.wal_bytes
            ),
        ]);
    }
    t.push(&[
        "full checkpoint".to_string(),
        format!("{n_users} users"),
        format!("{full_checkpoint_bytes} bytes"),
        "epoch 0 baseline".to_string(),
    ]);
    for &(burst, dirty, bytes) in &incremental {
        t.push(&[
            "incremental checkpoint".to_string(),
            format!("{burst} events / {dirty} dirty users"),
            format!("{bytes} bytes"),
            format!(
                "{:.1}% of full",
                100.0 * bytes as f64 / full_checkpoint_bytes.max(1) as f64
            ),
        ]);
    }

    let recovery_rows = points.iter().map(|p| {
        Json::obj([
            ("replay_records", Json::int(p.replay_records)),
            ("wal_bytes", Json::int(p.wal_bytes)),
            ("recover_ms", Json::num(p.recover_ms, 2)),
            ("records_per_sec", Json::num(p.records_per_sec, 0)),
        ])
    });
    let incremental_rows = incremental.iter().map(|&(burst, dirty, bytes)| {
        Json::obj([
            ("burst_events", Json::int(burst)),
            ("dirty_users", Json::int(dirty)),
            ("checkpoint_bytes", Json::int(bytes)),
        ])
    });
    let fields = vec![
        ("n_users", Json::int(n_users)),
        ("n_items", Json::int(n_items)),
        ("n_shards", Json::int(SHARDS)),
        ("fsync_every", Json::int(FSYNC_EVERY)),
        ("full_checkpoint_bytes", Json::int(full_checkpoint_bytes)),
        ("recovery", Json::Arr(recovery_rows.collect())),
        (
            "incremental_checkpoints",
            Json::Arr(incremental_rows.collect()),
        ),
    ];
    let mut a = BenchArtifact::new("BENCH_recovery.json", fields, vec![t]);
    a.require_keys(
        "",
        "n_users n_items n_shards fsync_every full_checkpoint_bytes recovery \
         incremental_checkpoints",
    );
    a.check(points.len() >= 3, "several replay depths measured");
    a.require_keys(
        "recovery",
        "replay_records wal_bytes recover_ms records_per_sec",
    );
    a.check(
        points.iter().all(|p| p.recover_ms > 0.0),
        "every recovery point must report recover_ms > 0",
    );
    let deep: Vec<_> = points.iter().filter(|p| p.replay_records >= 4000).collect();
    a.check(
        !deep.is_empty() && deep.iter().all(|p| p.records_per_sec > 100_000.0),
        "WAL replay must run at bulk speed, not per-event speed",
    );
    a.check(incremental.len() >= 2, "several burst sizes measured");
    a.require_keys(
        "incremental_checkpoints",
        "burst_events dirty_users checkpoint_bytes",
    );
    let full = full_checkpoint_bytes as f64;
    a.check(
        incremental.iter().all(|p| p.2 as f64 <= full * 1.25),
        "an incremental epoch must not dwarf the full export",
    );
    a.check(
        (incremental[0].2 as f64) < full * 0.5,
        "a small dirty set must produce a small incremental checkpoint",
    );
    a
}
