//! Failure-injection tests: feed the system the inputs production feeds
//! it on a bad day — corrupted snapshots, degenerate users, NaN scores,
//! mismatched models, full queues mid-epoch — and assert it degrades
//! the way the design documents say it should (reject + explain,
//! backpressure, never panic, never silently corrupt). The typed surface's
//! happy paths have their own suite in `tests/serving_api.rs`.

use sccf::core::{
    CandidateSource, Exclusion, RealtimeEngine, Sccf, SccfConfig, SnapshotDecodeError,
};
use sccf::data::dataset::{Dataset, Interaction};
use sccf::data::LeaveOneOut;
use sccf::models::{Fism, FismConfig, InductiveUiModel, Recommender, TrainConfig};
use sccf::serving::{RecQuery, RouterKind, ServingApi, ShardedConfig, ShardedEngine};

fn tiny_world(seed: u64) -> (LeaveOneOut, Dataset) {
    use rand::Rng;
    let mut inter = Vec::new();
    let mut rng = sccf::util::rng::rng_for(seed, 3);
    for u in 0..16u32 {
        let base = if u < 8 { 0 } else { 8 };
        let mut seen = sccf::util::hash::fx_set();
        let mut t = 0i64;
        while (t as usize) < 6 {
            let item = base + rng.gen_range(0..8u32);
            if seen.insert(item) {
                inter.push(Interaction {
                    user: u,
                    item,
                    ts: t,
                });
                t += 1;
            }
        }
    }
    let d = Dataset::from_interactions("fi", 16, 16, &inter, None);
    (LeaveOneOut::split(&d), d)
}

fn build_engine(seed: u64) -> RealtimeEngine<Fism> {
    let (split, _) = tiny_world(seed);
    let fism = Fism::train(
        &split,
        &FismConfig {
            train: TrainConfig {
                dim: 8,
                epochs: 5,
                seed,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let mut sccf = Sccf::build(
        fism,
        &split,
        SccfConfig {
            threads: 1,
            ..Default::default()
        },
    );
    sccf.refresh_for_test(&split);
    let histories: Vec<Vec<u32>> = (0..split.n_users() as u32)
        .map(|u| split.train_plus_val(u))
        .collect();
    RealtimeEngine::new(sccf, histories)
}

// ------------------------------------------------------------ snapshots

#[test]
fn bit_flip_in_snapshot_is_rejected_or_roundtrips_lengths() {
    // Flipping a byte inside an item id region decodes to *different
    // content* but must never panic; flipping inside a length prefix is
    // caught as truncation (lengths no longer add up) — either way the
    // engine never comes up half-initialized.
    let engine = build_engine(5);
    let snap = engine.snapshot();
    let sccf = engine.into_sccf();
    let mut corrupted = snap.clone();
    // flip one byte in the middle of the payload
    let mid = snap.len() / 2;
    corrupted[mid] ^= 0xFF;
    match RealtimeEngine::restore(sccf, &corrupted) {
        Ok(mut restored) => {
            // decoded fine: the flip hit an item id; engine must be fully
            // initialized and serviceable
            let (recs, _) = restored
                .recommend_query(0, 3, CandidateSource::Configured, &Exclusion::History)
                .expect("valid user");
            assert!(recs.len() <= 3);
        }
        Err(e) => {
            assert!(
                matches!(
                    e,
                    SnapshotDecodeError::Truncated
                        | SnapshotDecodeError::UserCountMismatch { .. }
                        | SnapshotDecodeError::ItemOutOfRange { .. }
                ),
                "unexpected error class: {e}"
            );
        }
    }
}

#[test]
fn truncated_snapshot_never_panics_at_any_cut_point() {
    let engine = build_engine(6);
    let snap = engine.snapshot();
    for cut in 0..snap.len().min(64) {
        let engine2 = build_engine(6);
        let sccf = engine2.into_sccf();
        // every strict prefix must be rejected cleanly
        assert!(
            RealtimeEngine::restore(sccf, &snap[..cut]).is_err(),
            "prefix of {cut} bytes must not decode"
        );
    }
}

// ------------------------------------------------------- degenerate users

#[test]
fn empty_history_user_still_gets_recommendations_path() {
    let engine = build_engine(7);
    let sccf = engine.sccf();
    // a brand-new user (empty history) must not panic anywhere in the
    // pipeline; UI scores collapse to zeros, the UU side may be empty
    let recs = sccf.recommend(0, &[], 5);
    assert!(recs.len() <= 5);
    let cand = sccf.candidate_features(0, &[]);
    assert_eq!(cand.ui_scores.len(), cand.items.len());
    assert_eq!(cand.uu_scores.len(), cand.items.len());
}

#[test]
fn user_with_everything_interacted_gets_nothing() {
    let engine = build_engine(8);
    let sccf = engine.sccf();
    let all: Vec<u32> = (0..sccf.model().n_items() as u32).collect();
    // every item is in the history ⇒ the candidate union is empty and the
    // contract says "no repeats", so no recommendations
    let recs = sccf.recommend(0, &all, 5);
    assert!(recs.is_empty());
}

#[test]
fn repeated_single_item_history_is_finite() {
    let engine = build_engine(9);
    let sccf = engine.sccf();
    let rep = sccf.model().infer_user(&[3; 50]);
    assert!(rep.iter().all(|v| v.is_finite()));
    let recs = sccf.recommend(1, &[3; 50], 5);
    assert!(recs.iter().all(|s| s.score.is_finite()));
    assert!(
        recs.iter().all(|s| s.id != 3),
        "never recommend the history"
    );
}

// -------------------------------------------------------- poisoned scores

#[test]
fn nan_scores_never_enter_topk() {
    // The TopK layer silently rejects NaN scores — a NaN-poisoned scorer
    // degrades to fewer results rather than a poisoned ranking.
    let scores = vec![0.5, f32::NAN, 0.9, f32::NAN, 0.1];
    let top = sccf::util::topk::topk_of_scores(&scores, 5);
    assert_eq!(top.len(), 3);
    assert!(top.iter().all(|s| s.score.is_finite()));
    assert_eq!(top[0].id, 2);
}

// ------------------------------------------------------ model mismatches

#[test]
fn model_load_rejects_wrong_catalog_size() {
    let (split, _) = tiny_world(10);
    let cfg = FismConfig {
        train: TrainConfig {
            dim: 8,
            epochs: 1,
            ..Default::default()
        },
        ..Default::default()
    };
    let model = Fism::train(&split, &cfg);
    let bytes = model.save_bytes();
    // a catalog twice the size cannot absorb these weights
    assert!(Fism::load_bytes(split.n_items() * 2, &cfg, &bytes).is_err());
}

#[test]
fn model_load_rejects_wrong_dimension() {
    let (split, _) = tiny_world(11);
    let cfg8 = FismConfig {
        train: TrainConfig {
            dim: 8,
            epochs: 1,
            ..Default::default()
        },
        ..Default::default()
    };
    let model = Fism::train(&split, &cfg8);
    let bytes = model.save_bytes();
    let cfg16 = FismConfig {
        train: TrainConfig {
            dim: 16,
            epochs: 1,
            ..Default::default()
        },
        ..Default::default()
    };
    assert!(Fism::load_bytes(split.n_items(), &cfg16, &bytes).is_err());
}

// ------------------------------------------------------ live resharding

/// A sharded fleet over the tiny world, with every queue as small as
/// the config allows — the adversarial setting for handoff
/// backpressure.
fn build_fleet(seed: u64, n_shards: usize, queue_capacity: usize) -> ShardedEngine<Fism> {
    let (split, _) = tiny_world(seed);
    let fism = Fism::train(
        &split,
        &FismConfig {
            train: TrainConfig {
                dim: 8,
                epochs: 5,
                seed,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let sccf = Sccf::build(
        fism,
        &split,
        SccfConfig {
            threads: 1,
            ..Default::default()
        },
    );
    let histories: Vec<Vec<u32>> = (0..split.n_users() as u32)
        .map(|u| split.train_plus_val(u))
        .collect();
    ShardedEngine::try_new(
        sccf,
        histories,
        ShardedConfig {
            n_shards,
            queue_capacity,
            router: RouterKind::Consistent { vnodes: 16 },
        },
    )
    .expect("valid fleet config")
}

#[test]
fn reshard_with_full_queues_backpressures_and_never_deadlocks() {
    // queue_capacity = 1: every import send lands on an effectively full
    // queue and must resolve through worker drain (backpressure). One
    // giant batch moves everyone at once — the worst single-step load.
    // The test passing *is* the assertion: a router↔worker cycle would
    // hang here forever.
    let mut fleet = build_fleet(31, 2, 1);
    for k in 0..40u32 {
        fleet.try_ingest(k % 16, k % 16).expect("ids in range");
    }
    fleet
        .begin_reshard(
            ShardedConfig {
                n_shards: 4,
                queue_capacity: 1,
                router: RouterKind::Consistent { vnodes: 16 },
            },
            usize::MAX, // one batch: the whole plan in a single handoff
        )
        .expect("begin reshard");
    let mut extra = 0u64;
    while fleet.is_migrating() {
        // Keep traffic flowing into the congested fleet between steps.
        for k in 0..8u32 {
            fleet
                .try_ingest(k % 16, (k + 3) % 16)
                .expect("ids in range");
            extra += 1;
        }
        fleet.reshard_step().expect("handoff despite full queues");
    }
    fleet.flush().expect("barrier");
    let stats = fleet.serving_stats().expect("stats");
    assert_eq!(
        stats.events,
        40 + extra,
        "backpressure must not drop events"
    );
    for u in 0..16u32 {
        assert!(!fleet
            .try_recommend(u, &RecQuery::top(3))
            .expect("valid user")
            .items
            .is_empty());
    }
    fleet.shutdown();
}

// --------------------------------------------- two-tier refresh epochs

#[test]
fn refresh_mid_reshard_is_cleanly_rejected_and_vice_versa() {
    // The two epoch machines must never interleave: user ownership
    // shifting under a half-collected snapshot would freeze users on
    // the wrong shard or drop them from the tier. Either order is a
    // typed rejection that leaves both epochs able to run to
    // completion — no deadlock, no corruption.
    let mut fleet = build_fleet(41, 2, 4);
    for k in 0..30u32 {
        fleet
            .try_ingest(k % 16, (k * 3) % 16)
            .expect("ids in range");
    }

    // A migration is in flight: refresh is rejected until it quiesces.
    fleet
        .begin_reshard(
            ShardedConfig {
                n_shards: 3,
                queue_capacity: 4,
                router: RouterKind::Consistent { vnodes: 16 },
            },
            2,
        )
        .expect("begin reshard");
    assert!(fleet.is_migrating());
    assert!(matches!(
        fleet.begin_refresh(4),
        Err(sccf::serving::ServingError::EpochInFlight { .. })
    ));
    assert!(matches!(
        fleet.refresh_global_tier(),
        Err(sccf::serving::ServingError::EpochInFlight { .. })
    ));
    while fleet.is_migrating() {
        fleet.reshard_step().expect("drive migration to completion");
    }
    // The rejected refresh left nothing half-open: a fresh one runs.
    let report = fleet.refresh_global_tier().expect("refresh after quiesce");
    assert_eq!(report.users, 16);

    // A refresh is collecting: reshard is rejected until it completes.
    fleet.begin_refresh(3).expect("begin refresh");
    assert!(matches!(
        fleet.begin_reshard(
            ShardedConfig {
                n_shards: 2,
                queue_capacity: 4,
                router: RouterKind::Consistent { vnodes: 16 },
            },
            2,
        ),
        Err(sccf::serving::ServingError::EpochInFlight { .. })
    ));
    assert!(matches!(
        fleet.clear_global_tier(),
        Err(sccf::serving::ServingError::EpochInFlight { .. })
    ));
    // Traffic keeps flowing between collection batches.
    let mut extra = 0u64;
    while fleet.refresh_step().expect("collection batch") > 0 {
        for k in 0..4u32 {
            fleet
                .try_ingest(k % 16, (k + 9) % 16)
                .expect("ids in range");
            extra += 1;
        }
    }
    // Both epochs done: the fleet reshards and keeps serving.
    fleet
        .reshard(ShardedConfig {
            n_shards: 2,
            queue_capacity: 4,
            router: RouterKind::Consistent { vnodes: 16 },
        })
        .expect("reshard after refresh completes");
    fleet.flush().expect("barrier");
    let stats = fleet.serving_stats().expect("stats");
    assert_eq!(stats.events, 30 + extra);
    assert!(stats.neighborhood.two_tier, "the tier survives the reshard");
    for u in 0..16u32 {
        assert!(!fleet
            .try_recommend(u, &RecQuery::top(3))
            .expect("valid user")
            .items
            .is_empty());
    }
    fleet.shutdown();
}

#[test]
fn refresh_with_full_queues_backpressures_and_never_deadlocks() {
    // queue_capacity = 1 and one giant collection batch: every
    // TierExport lands on an effectively full queue and resolves
    // through worker drain. The test passing *is* the assertion — a
    // router↔worker wait cycle would hang forever.
    let mut fleet = build_fleet(43, 2, 1);
    for k in 0..40u32 {
        fleet.try_ingest(k % 16, k % 16).expect("ids in range");
    }
    fleet.begin_refresh(usize::MAX).expect("begin refresh");
    assert_eq!(fleet.refresh_step().expect("one batch"), 0);
    let stats = fleet.serving_stats().expect("stats");
    assert!(stats.neighborhood.two_tier);
    assert_eq!(stats.neighborhood.users_covered, 16);
    for u in 0..16u32 {
        assert!(!fleet
            .try_recommend(u, &RecQuery::top(3))
            .expect("valid user")
            .items
            .is_empty());
    }
    fleet.shutdown();
}

#[test]
fn snapshot_mid_epoch_is_a_typed_rejection_not_a_corrupt_artifact() {
    use sccf::serving::ServingError;
    // Mid-reshard and mid-refresh, the fleet's layout is transitional —
    // users mid-handoff, a half-collected tier. A snapshot cut there
    // would be a state no uninterrupted engine ever held, so the typed
    // surface must reject it with EpochInFlight (and recover cleanly
    // once the epoch quiesces), never export a half-migrated artifact.
    let mut fleet = build_fleet(47, 2, 4);
    for k in 0..30u32 {
        fleet
            .try_ingest(k % 16, (k * 3) % 16)
            .expect("ids in range");
    }
    let baseline = fleet.try_snapshot().expect("stable fleet snapshots");

    fleet
        .begin_reshard(
            ShardedConfig {
                n_shards: 3,
                queue_capacity: 4,
                router: RouterKind::Consistent { vnodes: 16 },
            },
            2,
        )
        .expect("begin reshard");
    assert!(matches!(
        fleet.try_snapshot(),
        Err(ServingError::EpochInFlight {
            requested: "snapshot",
            in_flight: "reshard",
        })
    ));
    while fleet.is_migrating() {
        fleet.reshard_step().expect("drive migration to completion");
    }
    // Nothing ingested during the epoch: the post-epoch artifact is the
    // same canonical bytes the pre-epoch fleet exported.
    assert_eq!(
        fleet.try_snapshot().expect("snapshot after quiesce"),
        baseline,
        "a reshard moves users, it must not change their histories"
    );

    fleet.begin_refresh(4).expect("begin refresh");
    assert!(matches!(
        fleet.try_snapshot(),
        Err(ServingError::EpochInFlight {
            requested: "snapshot",
            in_flight: "refresh",
        })
    ));
    while fleet.refresh_step().expect("collection batch") > 0 {}
    assert_eq!(
        fleet.try_snapshot().expect("snapshot after refresh"),
        baseline
    );
    fleet.shutdown();
}

#[test]
fn epoch_exclusion_matrix_holds_cell_by_cell() {
    use sccf::core::GlobalNeighborSnapshot;
    use sccf::serving::{DurabilityConfig, ServingError};
    // One epoch slot, one guard: every operation × every kind of epoch
    // in flight. A blocked cell is the typed `EpochInFlight` naming
    // both sides; an allowed cell succeeds; either way the epoch's
    // cursor does not move, and (ingest aside) neither do the
    // histories.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Slot {
        Reshard,
        Refresh,
    }
    // (operation — also the `requested` name of its rejection —
    //  blocked by a reshard, blocked by a refresh)
    const OPS: [(&str, bool, bool); 10] = [
        ("begin_reshard", true, true),
        ("begin_refresh", true, true),
        ("install_global_tier", false, true),
        ("clear_global_tier", false, true),
        ("snapshot", true, true),
        ("checkpoint", true, true),
        ("enable_durability", true, true),
        ("export_user_states", false, false),
        ("try_ingest", false, false),
        ("try_recommend", false, false),
    ];
    const BATCH: usize = 3;
    let cfg = |n_shards| ShardedConfig {
        n_shards,
        queue_capacity: 4,
        router: RouterKind::Consistent { vnodes: 16 },
    };
    for slot in [Slot::Reshard, Slot::Refresh] {
        for (op, by_reshard, by_refresh) in OPS {
            let cell = format!("{op} during {slot:?}");
            let dir = std::env::temp_dir().join(format!(
                "sccf_epoch_matrix_{slot:?}_{op}_{}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let mut fleet = build_fleet(53, 2, 4);
            for k in 0..30u32 {
                fleet
                    .try_ingest(k % 16, (k * 3) % 16)
                    .expect("ids in range");
            }
            // A tier from the fleet's own pipeline: the refresh below
            // splices the users dirtied after it.
            fleet.refresh_global_tier().expect("full refresh");
            let tier = fleet.global_tier().expect("tier installed").encode();
            for k in 0..10u32 {
                fleet.try_ingest(k, (k + 5) % 16).expect("ids in range");
            }
            if op == "checkpoint" {
                fleet
                    .enable_durability(DurabilityConfig::new(&dir))
                    .expect("fresh directory");
            }
            let baseline = fleet.snapshot_state().expect("idle fleet snapshots");

            // Occupy the slot and walk one batch in, so a disturbed
            // cursor would show.
            let before = match slot {
                Slot::Reshard => {
                    fleet.begin_reshard(cfg(4), 1).expect("begin reshard");
                    fleet.reshard_step().expect("first handoff")
                }
                Slot::Refresh => {
                    fleet.begin_refresh(BATCH).expect("begin refresh");
                    fleet.refresh_step().expect("first batch")
                }
            };
            assert!(before > 0, "{cell}: the epoch must still be mid-flight");

            let result: Result<(), ServingError> = match op {
                "begin_reshard" => fleet.begin_reshard(cfg(3), 2),
                "begin_refresh" => fleet.begin_refresh(BATCH),
                "install_global_tier" => fleet.install_global_tier(
                    GlobalNeighborSnapshot::decode(&tier).expect("own artifact"),
                ),
                "clear_global_tier" => fleet.clear_global_tier(),
                "snapshot" => fleet.try_snapshot().map(drop),
                "checkpoint" => fleet.checkpoint().map(drop),
                "enable_durability" => fleet.enable_durability(DurabilityConfig::new(&dir)),
                "export_user_states" => fleet.export_user_states(&[0, 5, 9]).map(drop),
                "try_ingest" => fleet.try_ingest(2, 3).map(drop),
                "try_recommend" => fleet.try_recommend(2, &RecQuery::top(3)).map(drop),
                other => unreachable!("unknown op {other}"),
            };
            let (blocked, in_flight) = match slot {
                Slot::Reshard => (by_reshard, "reshard"),
                Slot::Refresh => (by_refresh, "refresh"),
            };
            if blocked {
                assert_eq!(
                    result,
                    Err(ServingError::EpochInFlight {
                        requested: op,
                        in_flight,
                    }),
                    "{cell}"
                );
            } else {
                assert_eq!(result, Ok(()), "{cell}");
            }

            // The same epoch is still in the slot, its cursor where the
            // first step left it: the next step covers exactly one
            // more batch.
            assert_eq!(fleet.is_migrating(), slot == Slot::Reshard, "{cell}");
            assert_eq!(fleet.is_refreshing(), slot != Slot::Reshard, "{cell}");
            let (after, batch) = match slot {
                Slot::Reshard => (fleet.reshard_step().expect("second handoff"), 1),
                _ => (fleet.refresh_step().expect("second batch"), BATCH),
            };
            assert_eq!(after, before.saturating_sub(batch), "{cell}: cursor moved");

            // Drive the epoch out and compare histories.
            while fleet.is_migrating() {
                fleet.reshard_step().expect("handoff");
            }
            while fleet.refresh_step().expect("collection batch") > 0 {}
            let end = fleet.snapshot_state().expect("idle again");
            if op == "try_ingest" {
                assert_ne!(end, baseline, "{cell}: the accepted event must land");
            } else {
                assert_eq!(end, baseline, "{cell}: histories changed");
            }
            if op == "enable_durability" {
                assert!(!dir.exists(), "{cell}: a rejected arming touched the disk");
            }
            fleet.shutdown();
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn shutdown_mid_migration_drains_cleanly_with_complete_accounting() {
    // Kill the fleet between handoff batches: some users already moved
    // to the freshly spawned shards, some still pending. Shutdown must
    // drain every queue (including in-flight imports), join every
    // worker — old and new — and account for every event exactly once.
    let mut fleet = build_fleet(37, 2, 4);
    for k in 0..50u32 {
        fleet
            .try_ingest(k % 16, (k * 5) % 16)
            .expect("ids in range");
    }
    fleet
        .begin_reshard(
            ShardedConfig {
                n_shards: 4,
                queue_capacity: 4,
                router: RouterKind::Consistent { vnodes: 16 },
            },
            2,
        )
        .expect("begin reshard");
    let remaining = fleet.reshard_step().expect("one batch only");
    assert!(
        remaining > 0,
        "the scale-out must still be mid-flight for this test to bite"
    );
    assert!(fleet.is_migrating());
    // More traffic lands on the half-migrated routing.
    for k in 0..20u32 {
        fleet
            .try_ingest(k % 16, (k * 7) % 16)
            .expect("ids in range");
    }
    let reports = fleet.shutdown();
    assert_eq!(
        reports.len(),
        4,
        "old and freshly spawned workers all joined"
    );
    assert_eq!(
        reports.iter().map(|r| r.events).sum::<u64>(),
        70,
        "every accepted event processed exactly once before exit"
    );
}

#[test]
fn reshard_swaps_surviving_workers_onto_new_capacity_queues() {
    // Regression: a reshard whose target config changes `queue_capacity`
    // used to resize only the freshly spawned workers' queues — the
    // surviving workers kept draining their spawn-time queues, so an
    // operator "raise the queues" reshard silently did nothing for the
    // shards that needed it most. The swap must reach every survivor,
    // worker-side (ShardReport), not just the router's bookkeeping
    // (PressureStats).
    let mut fleet = build_fleet(47, 2, 4);
    for k in 0..30u32 {
        fleet.try_ingest(k % 16, k % 16).expect("ids in range");
    }
    // Scale-out with a capacity raise, traffic flowing mid-migration.
    fleet
        .begin_reshard(
            ShardedConfig {
                n_shards: 4,
                queue_capacity: 64,
                router: RouterKind::Consistent { vnodes: 16 },
            },
            2,
        )
        .expect("begin reshard");
    let mut extra = 0u64;
    while fleet.is_migrating() {
        for k in 0..4u32 {
            fleet
                .try_ingest(k % 16, (k + 5) % 16)
                .expect("ids in range");
            extra += 1;
        }
        fleet.reshard_step().expect("handoff");
    }
    let stats = fleet.serving_stats().expect("stats");
    assert_eq!(
        stats.pressure.queue_capacity, 64,
        "router must report the post-reshard capacity"
    );
    assert_eq!(stats.events, 30 + extra, "no event lost across the swap");

    // Capacity-only reshard: same shard count, same router — the plan
    // is empty, no user moves, yet every queue must shrink to 2.
    fleet
        .begin_reshard(
            ShardedConfig {
                n_shards: 4,
                queue_capacity: 2,
                router: RouterKind::Consistent { vnodes: 16 },
            },
            8,
        )
        .expect("capacity-only reshard");
    while fleet.is_migrating() {
        fleet.reshard_step().expect("empty-plan steps");
    }
    // The shrunken queues still carry traffic (backpressure, no hang).
    for k in 0..40u32 {
        fleet
            .try_ingest(k % 16, (k * 3) % 16)
            .expect("ids in range");
        extra += 1;
    }
    fleet.flush().expect("barrier");
    for u in 0..16u32 {
        assert!(!fleet
            .try_recommend(u, &RecQuery::top(3))
            .expect("valid user")
            .items
            .is_empty());
    }
    let reports = fleet.shutdown();
    assert_eq!(reports.len(), 4);
    for r in &reports {
        assert_eq!(
            r.queue_capacity, 2,
            "shard {}: worker still drains an old-capacity queue",
            r.shard
        );
    }
    assert_eq!(
        reports.iter().map(|r| r.events).sum::<u64>(),
        30 + extra,
        "every accepted event processed exactly once"
    );
}
