//! Durability integration: the WAL + incremental-checkpoint layer's
//! contracts, pinned deterministically (the randomized adversarial
//! schedules live in `tests/chaos.rs`).
//!
//! * checkpoint-chain equivalence — k incremental epochs + WAL replay,
//!   one full checkpoint, and a never-durable engine fed the same
//!   stream all converge to bit-identical snapshots;
//! * crash-at-every-fsync-batch — a fixed 1k-event stream cut at every
//!   fsync boundary recovers bit-identically to a reference fed the
//!   surviving prefix, at every single cut;
//! * the guard rails — dirty-directory rejection, recovery without a
//!   checkpoint, recovery across shard counts, a reshard whose new
//!   shard's WAL cannot be opened.

use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use proptest::prelude::*;
use sccf::core::{FrozenTierMode, IntegratorConfig, Sccf, SccfConfig, UserBasedConfig};
use sccf::data::catalog::{ml1m_sim, Scale};
use sccf::data::synthetic::generate;
use sccf::data::LeaveOneOut;
use sccf::models::{Fism, FismConfig, TrainConfig};
use sccf::serving::{
    wal, DurabilityConfig, RecQuery, RouterKind, ServingApi, ServingError, ShardedConfig,
    ShardedEngine,
};

/// The fixed population every test perturbs. The trained model is
/// frozen as bytes so every fleet — durable, recovered, reference —
/// rehydrates the *same* floats; without that, bit-identity assertions
/// would compare two different models.
struct World {
    split: LeaveOneOut,
    histories: Vec<Vec<u32>>,
    n_users: usize,
    n_items: usize,
    model_bytes: Vec<u8>,
    fism_cfg: FismConfig,
}

fn world() -> &'static World {
    static WORLD: OnceLock<World> = OnceLock::new();
    WORLD.get_or_init(|| {
        let mut cfg = ml1m_sim(Scale::Quick);
        cfg.name = "durability".to_string();
        cfg.n_users = 32;
        cfg.n_items = 24;
        cfg.n_categories = 4;
        cfg.mean_len = 8.0;
        cfg.min_len = 4;
        let data = generate(&cfg, 2024).dataset;
        let split = LeaveOneOut::split(&data);
        let fism_cfg = FismConfig {
            train: TrainConfig {
                dim: 8,
                epochs: 2,
                seed: 2024,
                ..Default::default()
            },
            ..Default::default()
        };
        let fism = Fism::train(&split, &fism_cfg);
        let model_bytes = fism.save_bytes();
        let histories: Vec<Vec<u32>> = (0..split.n_users() as u32)
            .map(|u| split.train_plus_val(u))
            .collect();
        World {
            n_users: split.n_users(),
            n_items: split.n_items(),
            histories,
            split,
            model_bytes,
            fism_cfg,
        }
    })
}

fn fresh_sccf(w: &World) -> Sccf<Fism> {
    let fism = Fism::load_bytes(w.n_items, &w.fism_cfg, &w.model_bytes)
        .expect("own model bytes always rehydrate");
    let mut sccf = Sccf::build(
        fism,
        &w.split,
        SccfConfig {
            user_based: UserBasedConfig {
                beta: 8,
                recent_window: 5,
            },
            candidate_n: 12,
            integrator: IntegratorConfig {
                epochs: 2,
                seed: 7,
                ..Default::default()
            },
            threads: 1,
            ui_ann: None,
            frozen_tier: FrozenTierMode::Flat,
        },
    );
    sccf.refresh_for_test(&w.split);
    sccf
}

fn shard_cfg(n_shards: usize) -> ShardedConfig {
    ShardedConfig {
        n_shards,
        queue_capacity: 32,
        router: RouterKind::Consistent { vnodes: 16 },
    }
}

fn fresh_fleet(w: &World, n_shards: usize) -> ShardedEngine<Fism> {
    ShardedEngine::try_new(fresh_sccf(w), w.histories.clone(), shard_cfg(n_shards))
        .expect("valid fleet config")
}

fn durability(dir: &Path, fsync_every: u32) -> DurabilityConfig {
    DurabilityConfig {
        fsync_every,
        ..DurabilityConfig::new(dir)
    }
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sccf_durability_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The deterministic event stream all tests share: touches every user,
/// never repeats an (offset, user, item) pattern within a test.
fn event_at(w: &World, k: u64) -> (u32, u32) {
    (
        (k as u32).wrapping_mul(131) % w.n_users as u32,
        (k as u32).wrapping_mul(7919).wrapping_add(13) % w.n_items as u32,
    )
}

/// Bit-level equality of two fleets: snapshot bytes plus id+score-bit
/// recommendation slates for every user.
fn assert_fleets_identical(
    a: &mut ShardedEngine<Fism>,
    b: &mut ShardedEngine<Fism>,
    context: &str,
) {
    let sa = a.try_snapshot().expect("no epoch in flight");
    let sb = b.try_snapshot().expect("no epoch in flight");
    assert!(
        sa == sb,
        "{context}: snapshot bytes diverge ({} vs {} bytes)",
        sa.len(),
        sb.len()
    );
    let n_users = world().n_users as u32;
    for u in 0..n_users {
        let ra = a.try_recommend(u, &RecQuery::top(5)).expect("valid user");
        let rb = b.try_recommend(u, &RecQuery::top(5)).expect("valid user");
        let abits: Vec<(u32, u32)> = ra.items.iter().map(|s| (s.id, s.score.to_bits())).collect();
        let bbits: Vec<(u32, u32)> = rb.items.iter().map(|s| (s.id, s.score.to_bits())).collect();
        assert_eq!(abits, bbits, "{context}: user {u} slate diverges");
    }
}

// --------------------------------------------------------- guard rails

#[test]
fn enable_durability_rejects_dirty_directory_and_zero_fsync() {
    let w = world();
    let dir = scratch_dir("dirty");

    let mut fleet = fresh_fleet(w, 2);
    assert!(
        matches!(
            fleet.enable_durability(durability(&dir, 0)),
            Err(ServingError::InvalidConfig(_))
        ),
        "fsync_every == 0 would mean 'never sync'; must be rejected"
    );
    fleet
        .enable_durability(durability(&dir, 8))
        .expect("fresh directory");
    assert!(
        matches!(
            fleet.enable_durability(durability(&dir, 8)),
            Err(ServingError::Durability(_))
        ),
        "double enable must be rejected"
    );
    fleet.shutdown();

    // The directory now holds a WAL + epoch-0 checkpoint: a *new* fleet
    // must not silently interleave its history into it.
    let mut second = fresh_fleet(w, 2);
    assert!(
        matches!(
            second.enable_durability(durability(&dir, 8)),
            Err(ServingError::Durability(_))
        ),
        "a directory with prior durability state belongs to recover()"
    );
    second.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A failed epoch-0 checkpoint write must leave nothing behind: no WAL
/// file (a WAL without a checkpoint is a directory neither
/// `enable_durability` nor `recover` accepts), no armed worker — so the
/// same call succeeds once the obstacle is gone.
#[test]
fn failed_enable_durability_leaves_the_directory_retryable() {
    let w = world();
    for fresh_engine in [false, true] {
        let dir = scratch_dir(if fresh_engine { "wedge_fresh" } else { "wedge" });
        // A *directory* where the checkpoint's temp file goes: the write fails.
        let obstacle = dir.join("ckpt-00000000.tmp");
        std::fs::create_dir_all(&obstacle).unwrap();

        let mut fleet = fresh_fleet(w, 2);
        assert!(fleet.enable_durability(durability(&dir, 8)).is_err());
        assert!(
            wal::list_wal_files(&dir).unwrap().is_empty(),
            "no WAL may exist before the epoch-0 checkpoint does"
        );
        assert!(!fleet.serving_stats().expect("stats").durability.enabled);

        std::fs::remove_dir(&obstacle).unwrap();
        if fresh_engine {
            fleet.shutdown();
            fleet = fresh_fleet(w, 2);
        }
        fleet
            .enable_durability(durability(&dir, 8))
            .expect("the once-failed directory is still usable");
        assert!(fleet.serving_stats().expect("stats").durability.enabled);
        fleet.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn recover_requires_a_checkpoint() {
    let w = world();
    let dir = scratch_dir("nockpt");
    // Nonexistent directory: nothing to recover from.
    assert!(matches!(
        ShardedEngine::recover(fresh_sccf(w), shard_cfg(2), durability(&dir, 8)),
        Err(ServingError::Durability(_))
    ));
    // A WAL with no checkpoint is equally unusable — the epoch-0 full
    // export is the floor replay stacks on.
    std::fs::create_dir_all(&dir).unwrap();
    wal::WalWriter::create(&wal::wal_path(&dir, 0), 8).unwrap();
    assert!(matches!(
        ShardedEngine::recover(fresh_sccf(w), shard_cfg(2), durability(&dir, 8)),
        Err(ServingError::Durability(_))
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recover_into_different_shard_counts_is_bit_identical() {
    let w = world();
    let dir = scratch_dir("reshape");
    let mut fleet = fresh_fleet(w, 2);
    fleet
        .enable_durability(durability(&dir, 8))
        .expect("fresh directory");
    for k in 0..200 {
        let (u, i) = event_at(w, k);
        fleet.try_ingest(u, i).expect("ids in range");
    }
    fleet.checkpoint().expect("no epoch in flight");
    for k in 200..300 {
        let (u, i) = event_at(w, k);
        fleet.try_ingest(u, i).expect("ids in range");
    }
    fleet.wal_sync().expect("durability enabled");
    fleet.shutdown();

    // The artifacts are whole-population: any fleet shape rehydrates
    // them. The canonical snapshot hides the shard count entirely;
    // recommendation slates are compared against a reference of the
    // *same* shape, because fresh deltas are shard-local by design (a
    // 1-shard fleet sees every user's delta, a 3-shard fleet only its
    // own) — that's the paper's neighborhood partitioning, not
    // recovery drift.
    let mut canonical: Option<Vec<u8>> = None;
    for n_shards in [1usize, 2, 3] {
        let (mut recovered, rec) =
            ShardedEngine::recover(fresh_sccf(w), shard_cfg(n_shards), durability(&dir, 8))
                .expect("clean-tail recovery");
        assert_eq!(rec.watermark, 200);
        assert_eq!(rec.replayed.len(), 100);
        assert_eq!(rec.max_seq, 300);
        let mut reference = fresh_fleet(w, n_shards);
        for k in 0..300 {
            let (u, i) = event_at(w, k);
            reference.try_ingest(u, i).expect("ids in range");
        }
        reference.flush().expect("barrier");
        assert_fleets_identical(
            &mut recovered,
            &mut reference,
            &format!("recover 2 shards -> {n_shards}"),
        );
        let snap = recovered.try_snapshot().expect("no epoch in flight");
        if let Some(prev) = &canonical {
            assert_eq!(
                prev, &snap,
                "the snapshot artifact must not depend on the recovered shape"
            );
        }
        canonical = Some(snap);
        recovered.shutdown();
        reference.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn begin_reshard_is_atomic_when_a_new_shards_wal_cannot_open() {
    // Regression: `begin_reshard` used to push each new worker into the
    // fleet *before* opening its WAL, so an I/O failure returned `Err`
    // with a half-spawned, log-less worker left behind — and a retried
    // reshard skipped the spawn loop, leaving that shard to serve
    // acknowledged events no recovery could replay.
    let w = world();
    let dir = scratch_dir("reshard_wal");
    let mut fleet = fresh_fleet(w, 2);
    fleet
        .enable_durability(durability(&dir, 4))
        .expect("fresh directory");
    for k in 0..60 {
        let (u, i) = event_at(w, k);
        fleet.try_ingest(u, i).expect("ids in range");
    }

    // Obstruct new shard 2's log: the path exists but is no WAL.
    let obstruction = wal::wal_path(&dir, 2);
    std::fs::create_dir(&obstruction).expect("obstruct wal-2.log");
    let workers_before = fleet.serving_stats().expect("stats").shards.len();
    assert!(
        matches!(
            fleet.begin_reshard(shard_cfg(4), 8),
            Err(ServingError::Durability(_))
        ),
        "an unopenable WAL must fail the reshard"
    );
    assert!(
        !fleet.is_migrating(),
        "a failed begin leaves the slot empty"
    );
    assert_eq!(
        fleet.serving_stats().expect("stats").shards.len(),
        workers_before,
        "a failed begin must not leave a half-spawned worker in the fleet"
    );

    // Obstruction cleared: the retry spawns *and arms* every new shard,
    // so events routed to them afterwards are in a log.
    std::fs::remove_dir(&obstruction).expect("clear obstruction");
    fleet.reshard(shard_cfg(4)).expect("retried reshard");
    for k in 60..160 {
        let (u, i) = event_at(w, k);
        fleet.try_ingest(u, i).expect("ids in range");
    }
    let statuses = fleet.wal_sync().expect("durability enabled");
    assert_eq!(statuses.len(), 4, "every shard, old and new, has a WAL");
    assert!(
        statuses[2..].iter().any(|st| st.appended > 0),
        "the new shards must have logged the events routed to them"
    );
    // Kill right after the sync: the files are all that survives.
    fleet.shutdown();

    let (mut recovered, rec) =
        ShardedEngine::recover(fresh_sccf(w), shard_cfg(4), durability(&dir, 4))
            .expect("clean-tail recovery");
    assert_eq!(rec.max_seq, 160, "every acknowledged event survived");
    let mut reference = fresh_fleet(w, 4);
    for k in 0..160 {
        let (u, i) = event_at(w, k);
        reference.try_ingest(u, i).expect("ids in range");
    }
    reference.flush().expect("barrier");
    assert_fleets_identical(
        &mut recovered,
        &mut reference,
        "recover after a failed-then-retried reshard",
    );
    recovered.shutdown();
    reference.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

// ------------------------------------------- crash-at-every-batch sweep

/// A fixed 1k-event stream, a crash simulated at *every* fsync-batch
/// boundary: for each cut, every shard's WAL is truncated to the frames
/// with `seq <= cut` (exactly what survives a power cut that hit after
/// that batch's fsync), and the recovered fleet must be bit-identical
/// to a never-crashed fleet fed `events[..cut]`.
#[test]
fn crash_at_every_fsync_batch_recovers_bit_identically() {
    const EVENTS: u64 = 1000;
    const FSYNC_EVERY: u32 = 8;
    const SHARDS: usize = 2;
    let w = world();
    let dir = scratch_dir("sweep");

    let mut fleet = fresh_fleet(w, SHARDS);
    fleet
        .enable_durability(durability(&dir, FSYNC_EVERY))
        .expect("fresh directory");
    for k in 0..EVENTS {
        let (u, i) = event_at(w, k);
        fleet.try_ingest(u, i).expect("ids in range");
    }
    fleet.flush().expect("barrier");
    fleet.shutdown();

    // Pristine per-shard WAL images; every cut below re-derives its
    // truncated view from these (the graceful shutdown synced the
    // tails, so the full images are the "all batches landed" state).
    let files = wal::list_wal_files(&dir).expect("wal files present");
    assert_eq!(files.len(), SHARDS);
    let pristine: Vec<Vec<u8>> = files
        .iter()
        .map(|f| std::fs::read(f).expect("readable wal"))
        .collect();
    // Frame offsets per file from the low-level scanner — the same
    // source of truth recovery trusts.
    let scans: Vec<Vec<(usize, wal::WalRecord)>> = pristine
        .iter()
        .map(|bytes| {
            wal::scan_wal(bytes)
                .expect("pristine wal scans clean")
                .records
        })
        .collect();

    let mut reference = fresh_fleet(w, SHARDS);
    let mut fed = 0u64;
    for cut in (0..=EVENTS).step_by(FSYNC_EVERY as usize * SHARDS) {
        // Each shard keeps exactly its frames with seq <= cut: WAL
        // bytes after the last surviving frame are gone.
        for (i, f) in files.iter().enumerate() {
            let keep = scans[i]
                .iter()
                .take_while(|(_, r)| r.seq <= cut)
                .last()
                .map(|&(off, _)| off + wal::RECORD_FRAME_LEN)
                .unwrap_or(wal::WAL_MAGIC.len());
            std::fs::write(f, &pristine[i][..keep]).expect("writable wal");
        }
        let (mut recovered, rec) = ShardedEngine::recover(
            fresh_sccf(w),
            shard_cfg(SHARDS),
            durability(&dir, FSYNC_EVERY),
        )
        .expect("every cut recovers");
        assert_eq!(
            rec.replayed.len() as u64,
            cut,
            "cut {cut}: replay must cover exactly the surviving prefix"
        );
        assert_eq!(rec.max_seq, cut);
        // Advance the reference to the same prefix instead of
        // rebuilding it 60+ times.
        while fed < cut {
            let (u, i) = event_at(w, fed);
            reference.try_ingest(u, i).expect("ids in range");
            fed += 1;
        }
        reference.flush().expect("barrier");
        assert_fleets_identical(&mut recovered, &mut reference, &format!("cut {cut}"));
        recovered.shutdown();
    }
    reference.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

// ------------------------------------- checkpoint-chain equivalence

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For any stream shape and checkpoint cadence: (a) k incremental
    /// epochs + WAL replay of the uncheckpointed tail, (b) one
    /// checkpoint after the whole stream (replay-free recovery), and
    /// (c) a fleet that was never durable at all, fed the same events,
    /// converge to bit-identical state. The incremental chain encodes
    /// only dirty users per epoch — this is the proof that the overlay
    /// (newest blob per user, then replay) loses nothing.
    #[test]
    fn incremental_chain_equals_full_checkpoint_equals_rebuild(
        seed in 0u64..10_000,
        epochs in 1usize..5,
        burst in 10u64..80,
        tail in 0u64..40,
    ) {
        let w = world();
        let total = epochs as u64 * burst + tail;
        let stream: Vec<(u32, u32)> = (0..total)
            .map(|k| event_at(w, seed.wrapping_mul(977).wrapping_add(k)))
            .collect();

        // (a) incremental: checkpoint after every burst, crash with an
        // uncheckpointed (but synced) tail.
        let dir_a = scratch_dir(&format!("chain_a_{seed}_{epochs}_{burst}_{tail}"));
        let mut fleet = fresh_fleet(w, 2);
        fleet.enable_durability(durability(&dir_a, 4)).expect("fresh directory");
        let mut cursor = 0usize;
        for _ in 0..epochs {
            for _ in 0..burst {
                let (u, i) = stream[cursor];
                fleet.try_ingest(u, i).expect("ids in range");
                cursor += 1;
            }
            fleet.checkpoint().expect("no epoch in flight");
        }
        for _ in 0..tail {
            let (u, i) = stream[cursor];
            fleet.try_ingest(u, i).expect("ids in range");
            cursor += 1;
        }
        fleet.wal_sync().expect("durability enabled");
        fleet.shutdown();
        let (mut via_chain, rec) =
            ShardedEngine::recover(fresh_sccf(w), shard_cfg(2), durability(&dir_a, 4))
                .expect("chain recovery");
        prop_assert_eq!(rec.checkpoints_loaded, epochs + 1, "epoch 0 + one per burst");
        prop_assert_eq!(rec.watermark, epochs as u64 * burst);
        prop_assert_eq!(rec.replayed.len() as u64, tail);

        // (b) full: the entire stream under one checkpoint, no replay.
        let dir_b = scratch_dir(&format!("chain_b_{seed}_{epochs}_{burst}_{tail}"));
        let mut fleet = fresh_fleet(w, 2);
        fleet.enable_durability(durability(&dir_b, 4)).expect("fresh directory");
        for &(u, i) in &stream {
            fleet.try_ingest(u, i).expect("ids in range");
        }
        fleet.checkpoint().expect("no epoch in flight");
        fleet.shutdown();
        let (mut via_full, rec) =
            ShardedEngine::recover(fresh_sccf(w), shard_cfg(2), durability(&dir_b, 4))
                .expect("full recovery");
        prop_assert_eq!(rec.replayed.len(), 0, "nothing past the watermark");

        // (c) never durable at all.
        let mut rebuilt = fresh_fleet(w, 2);
        for &(u, i) in &stream {
            rebuilt.try_ingest(u, i).expect("ids in range");
        }
        rebuilt.flush().expect("barrier");

        assert_fleets_identical(&mut via_chain, &mut via_full, "chain vs full");
        assert_fleets_identical(&mut via_full, &mut rebuilt, "full vs rebuild");
        via_chain.shutdown();
        via_full.shutdown();
        rebuilt.shutdown();
        let _ = std::fs::remove_dir_all(&dir_a);
        let _ = std::fs::remove_dir_all(&dir_b);
    }
}

// ------------------------------------------- WAL rotation (bounded disk)

/// Each checkpoint seals the active segment and prunes segments the
/// *previous* watermark already covered, so on-disk WAL stays bounded
/// by ~one checkpoint interval of slack per shard no matter how long
/// the stream runs — and recovery still replays cleanly across the
/// sealed-segment boundary.
#[test]
fn wal_rotation_bounds_disk_and_recovers_across_segments() {
    const SHARDS: usize = 2;
    const ROUND: u64 = 50;
    const ROUNDS: u64 = 6;
    const TAIL: u64 = 30;
    let w = world();
    let dir = scratch_dir("rotate");

    let mut fleet = fresh_fleet(w, SHARDS);
    fleet
        .enable_durability(durability(&dir, 8))
        .expect("fresh directory");
    let mut fed = 0u64;
    for round in 0..ROUNDS {
        for _ in 0..ROUND {
            let (u, i) = event_at(w, fed);
            fleet.try_ingest(u, i).expect("ids in range");
            fed += 1;
        }
        fleet.flush().expect("barrier");
        fleet.checkpoint().expect("checkpoint");
        // Active segment + at most one sealed segment of slack per
        // shard: rotation must not let segments pile up.
        let files = wal::list_wal_files(&dir).expect("wal dir lists");
        assert!(
            files.len() <= SHARDS * 2,
            "round {round}: {} WAL files on disk — rotation is not pruning",
            files.len()
        );
    }
    // An uncheckpointed tail forces recovery to replay across the last
    // sealed boundary.
    for _ in 0..TAIL {
        let (u, i) = event_at(w, fed);
        fleet.try_ingest(u, i).expect("ids in range");
        fed += 1;
    }
    fleet.flush().expect("barrier");
    fleet.shutdown();

    let (mut recovered, rec) =
        ShardedEngine::recover(fresh_sccf(w), shard_cfg(SHARDS), durability(&dir, 8))
            .expect("rotated directory recovers");
    assert_eq!(
        rec.replayed.len() as u64,
        TAIL,
        "replay covers exactly the tail"
    );
    assert_eq!(rec.max_seq, ROUNDS * ROUND + TAIL);

    let mut reference = fresh_fleet(w, SHARDS);
    for k in 0..fed {
        let (u, i) = event_at(w, k);
        reference.try_ingest(u, i).expect("ids in range");
    }
    reference.flush().expect("barrier");
    assert_fleets_identical(&mut recovered, &mut reference, "after rotation");
    recovered.shutdown();
    reference.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

// ------------------------------------------- point-in-time restore

/// `recover_at(target)` rewinds the fleet to "as of seq `target`":
/// state is bit-identical to a fleet fed exactly that prefix, the
/// report records where replay stopped, and the restored fleet comes up
/// with durability disarmed (re-arming would collide with the
/// surviving suffix on disk).
#[test]
fn point_in_time_restore_stops_exactly_at_target() {
    const SHARDS: usize = 2;
    const EVENTS: u64 = 200;
    let w = world();
    let dir = scratch_dir("pit");

    let mut fleet = fresh_fleet(w, SHARDS);
    fleet
        .enable_durability(durability(&dir, 8))
        .expect("fresh directory");
    for k in 0..EVENTS {
        let (u, i) = event_at(w, k);
        fleet.try_ingest(u, i).expect("ids in range");
        if k == 59 || k == 119 {
            fleet.flush().expect("barrier");
            fleet.checkpoint().expect("mid-stream checkpoint");
        }
    }
    fleet.flush().expect("barrier");
    fleet.shutdown();

    // Targets straddle every interesting boundary. Rewind resolution
    // is bounded by WAL rotation: the checkpoint at seq 120 pruned the
    // sealed segment the previous watermark (60) covered, so a target
    // *inside* the pruned interval (30) can only reach the newest
    // checkpoint at or below it — seq 0. Within the retained window
    // (61 onwards, one interval of slack plus the tail), the rewind is
    // exact.
    let mut reference = fresh_fleet(w, SHARDS);
    let mut fed = 0u64;
    for (target, applied) in [
        (0u64, 0u64),
        (30, 0), // pruned interval: clamps to checkpoint watermark 0
        (90, 90),
        (150, 150),
        (EVENTS, EVENTS),
        (EVENTS + 300, EVENTS),
    ] {
        let (mut restored, rec) = ShardedEngine::recover_at(
            fresh_sccf(w),
            shard_cfg(SHARDS),
            durability(&dir, 8),
            target,
        )
        .expect("every target restores");
        assert_eq!(
            rec.stopped_at,
            Some(applied),
            "target {target}: stopped_at records the highest applied seq"
        );
        while fed < applied {
            let (u, i) = event_at(w, fed);
            reference.try_ingest(u, i).expect("ids in range");
            fed += 1;
        }
        reference.flush().expect("barrier");
        assert_fleets_identical(&mut restored, &mut reference, &format!("target {target}"));
        assert!(
            matches!(restored.checkpoint(), Err(ServingError::Durability(_))),
            "target {target}: a rewound fleet must come up disarmed"
        );
        restored.shutdown();
    }
    // A full recovery of the same directory still works afterwards —
    // restore-at is read-only with respect to the log.
    let (mut full, rec) =
        ShardedEngine::recover(fresh_sccf(w), shard_cfg(SHARDS), durability(&dir, 8))
            .expect("directory intact after PIT reads");
    assert_eq!(
        rec.stopped_at, None,
        "plain recovery does not report a stop"
    );
    assert_eq!(rec.max_seq, EVENTS);
    while fed < EVENTS {
        let (u, i) = event_at(w, fed);
        reference.try_ingest(u, i).expect("ids in range");
        fed += 1;
    }
    reference.flush().expect("barrier");
    assert_fleets_identical(&mut full, &mut reference, "full recovery after PIT");
    full.shutdown();
    reference.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

// ------------------------------------------------------- group commit

/// Every file in a durability directory, by name, with its bytes.
fn dir_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("durability dir lists")
        .map(|entry| {
            let path = entry.expect("dir entry").path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&path).expect("durability file reads"))
        })
        .collect();
    files.sort();
    files
}

/// A durable fleet behind queues deep enough that a large batch sits
/// queued while the workers drain it in write groups.
fn durable_deep_fleet(w: &World, dir: &Path, fsync_every: u32) -> ShardedEngine<Fism> {
    let cfg = ShardedConfig {
        queue_capacity: 256,
        ..shard_cfg(2)
    };
    let mut fleet = ShardedEngine::try_new(fresh_sccf(w), w.histories.clone(), cfg)
        .expect("valid fleet config");
    fleet
        .enable_durability(durability(dir, fsync_every))
        .expect("fresh directory");
    fleet
}

/// The shard worker logs the events queued behind one another as one
/// write group: the same stream fed as large queued batches (groups as
/// long as the fsync interval allows) and one event per barrier (groups
/// of one) leaves byte-identical WAL segments and checkpoints, equal
/// WAL statuses, and bit-identical state.
#[test]
fn group_commit_leaves_the_bytes_of_one_write_per_event() {
    const EVENTS: u64 = 600;
    const CHECKPOINT_AT: u64 = 350;
    let w = world();
    for fsync_every in [1u32, 3, 64] {
        let dir_batch = scratch_dir(&format!("group_batch_{fsync_every}"));
        let dir_single = scratch_dir(&format!("group_single_{fsync_every}"));
        let stream: Vec<(u32, u32)> = (0..EVENTS).map(|k| event_at(w, k)).collect();
        let (head, tail) = stream.split_at(CHECKPOINT_AT as usize);

        let mut batched = durable_deep_fleet(w, &dir_batch, fsync_every);
        batched.ingest_batch(head).expect("ids in range");
        batched.checkpoint().expect("checkpoint");
        batched.ingest_batch(tail).expect("ids in range");

        let mut single = durable_deep_fleet(w, &dir_single, fsync_every);
        for (k, &(u, i)) in stream.iter().enumerate() {
            if k as u64 == CHECKPOINT_AT {
                single.checkpoint().expect("checkpoint");
            }
            single.try_ingest(u, i).expect("ids in range");
            single.flush().expect("barrier");
        }

        let context = format!("fsync_every {fsync_every}");
        assert_eq!(
            batched.wal_status().expect("durability enabled"),
            single.wal_status().expect("durability enabled"),
            "{context}: WAL statuses"
        );
        batched.checkpoint().expect("checkpoint");
        single.checkpoint().expect("checkpoint");
        assert_fleets_identical(&mut batched, &mut single, &context);
        batched.shutdown();
        single.shutdown();
        let (batch_files, single_files) = (dir_files(&dir_batch), dir_files(&dir_single));
        let names = |files: &[(String, Vec<u8>)]| -> Vec<String> {
            files.iter().map(|(name, _)| name.clone()).collect()
        };
        assert_eq!(names(&batch_files), names(&single_files), "{context}");
        assert!(
            names(&batch_files).iter().any(|n| n.starts_with("wal-0-")),
            "{context}: a sealed segment exists"
        );
        for ((name, a), (_, b)) in batch_files.iter().zip(&single_files) {
            assert!(a == b, "{context}: {name} diverges");
        }
        let _ = std::fs::remove_dir_all(&dir_batch);
        let _ = std::fs::remove_dir_all(&dir_single);
    }
}

/// A request queued behind a batch is not drained into its write
/// group: with no barrier anywhere, a slate requested between two
/// batches sees all of the first and none of the second.
#[test]
fn group_commit_keeps_fifo_across_the_drain() {
    const EVENTS: u64 = 400;
    let w = world();
    let user = 5u32;
    // `user` clicks throughout both batches, last in the first one, so
    // the request is queued right behind an event of hers.
    let mut stream: Vec<(u32, u32)> = (0..EVENTS).map(|k| event_at(w, k)).collect();
    for (k, ev) in stream.iter_mut().enumerate().step_by(7) {
        ev.0 = user;
        ev.1 = (k % w.n_items) as u32;
    }
    let (a, b) = stream.split_at(EVENTS as usize / 2);
    let mut a = a.to_vec();
    a.push((user, 3));

    let dir = scratch_dir("group_fifo");
    let mut fleet = durable_deep_fleet(w, &dir, 64);
    fleet.ingest_batch(&a).expect("ids in range");
    let between = fleet
        .try_recommend(user, &RecQuery::top(5))
        .expect("valid user");
    fleet.ingest_batch(b).expect("ids in range");

    let mut reference = fresh_fleet(w, 2);
    reference.ingest_batch(&a).expect("ids in range");
    reference.flush().expect("barrier");
    let after_a = reference
        .try_recommend(user, &RecQuery::top(5))
        .expect("valid user");
    let bits = |r: &sccf::serving::RecResponse| -> Vec<(u32, u32)> {
        r.items.iter().map(|s| (s.id, s.score.to_bits())).collect()
    };
    assert_eq!(
        bits(&between),
        bits(&after_a),
        "the slate between the batches must be the slate after the first alone"
    );
    reference.ingest_batch(b).expect("ids in range");
    reference.flush().expect("barrier");
    assert_fleets_identical(&mut fleet, &mut reference, "after both batches");
    fleet.shutdown();
    reference.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
