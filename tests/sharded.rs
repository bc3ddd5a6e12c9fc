//! Sharded-engine contracts (ISSUE 2 + ISSUE 3 acceptance):
//!
//! * shard routing is deterministic — the same user always lands on the
//!   same shard, across engines and across calls;
//! * `ShardedEngine` with `n_shards = 1` produces **bit-identical**
//!   recommendations to the plain single-writer `RealtimeEngine` on a
//!   seeded event stream;
//! * at `n_shards > 1`, drain/shutdown account for every event and
//!   per-user event order is preserved end to end;
//! * construction and routing edge cases (`n_shards = 0`, out-of-range
//!   user/item ids) surface `ServingError` — no panics, no silent
//!   drops, and workers survive rejected requests.
//!
//! The typed `ServingApi` surface itself (batching, snapshot/reshard)
//! is covered in `tests/serving_api.rs`.

use rand::Rng;
use sccf::core::{
    CandidateSource, Exclusion, IntegratorConfig, RealtimeEngine, Sccf, SccfConfig, UserBasedConfig,
};
use sccf::data::{Dataset, Interaction, LeaveOneOut};
use sccf::models::{Fism, FismConfig, TrainConfig};
use sccf::serving::{
    HashRing, RecQuery, RouterKind, ServingApi, ServingError, ShardedConfig, ShardedEngine,
};
use sccf::util::topk::Scored;

const N_USERS: u32 = 24;
const N_ITEMS: u32 = 18;

/// Two taste groups over the catalog, deterministic for a given seed.
fn world(seed: u64) -> (LeaveOneOut, Vec<Vec<u32>>) {
    let mut rng = sccf::util::rng::rng_for(seed, 77);
    let mut inter = Vec::new();
    for u in 0..N_USERS {
        let base = if u < N_USERS / 2 { 0 } else { N_ITEMS / 2 };
        let mut seen = sccf::util::hash::fx_set();
        let mut t = 0i64;
        while (t as usize) < 6 {
            let item = base + rng.gen_range(0..N_ITEMS / 2);
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
    let data =
        Dataset::from_interactions("sharded", N_USERS as usize, N_ITEMS as usize, &inter, None);
    let split = LeaveOneOut::split(&data);
    let histories = (0..N_USERS).map(|u| split.train_plus_val(u)).collect();
    (split, histories)
}

/// Deterministic build: same seed in, same floats out.
fn build_sccf(split: &LeaveOneOut, seed: u64) -> Sccf<Fism> {
    build_sccf_with_tier(split, seed, sccf_core::FrozenTierMode::Flat)
}

/// Same deterministic build, but with a chosen frozen-tier mode.
fn build_sccf_with_tier(
    split: &LeaveOneOut,
    seed: u64,
    frozen_tier: sccf_core::FrozenTierMode,
) -> Sccf<Fism> {
    let fism = Fism::train(
        split,
        &FismConfig {
            train: TrainConfig {
                dim: 8,
                epochs: 6,
                seed,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let mut sccf = Sccf::build(
        fism,
        split,
        SccfConfig {
            user_based: UserBasedConfig {
                beta: 5,
                recent_window: 5,
            },
            candidate_n: 10,
            integrator: IntegratorConfig {
                epochs: 4,
                seed,
                ..Default::default()
            },
            threads: 1,
            ui_ann: None,
            frozen_tier,
        },
    );
    sccf.refresh_for_test(split);
    sccf
}

/// A seeded interleaving of events and recommendation points.
fn event_stream(seed: u64, len: usize) -> Vec<(u32, u32)> {
    let mut rng = sccf::util::rng::rng_for(seed, 31);
    (0..len)
        .map(|_| (rng.gen_range(0..N_USERS), rng.gen_range(0..N_ITEMS)))
        .collect()
}

/// The plain engine's default query (configured source, history
/// excluded) — what `RecQuery::top(n)` asks of the sharded engine.
fn plain_top(engine: &mut RealtimeEngine<Fism>, user: u32, n: usize) -> Vec<Scored> {
    let (items, _) = engine
        .recommend_query(user, n, CandidateSource::Configured, &Exclusion::History)
        .expect("valid user");
    items
}

fn sharded_top(engine: &mut ShardedEngine<Fism>, user: u32, n: usize) -> Vec<Scored> {
    engine
        .try_recommend(user, &RecQuery::top(n))
        .expect("valid user")
        .items
}

fn assert_bit_identical(a: &[Scored], b: &[Scored], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: length mismatch");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.id, y.id, "{ctx}: id mismatch");
        assert_eq!(
            x.score.to_bits(),
            y.score.to_bits(),
            "{ctx}: score bits differ for item {}",
            x.id
        );
    }
}

#[test]
fn routing_is_deterministic_across_calls_and_spread() {
    for n in [1usize, 2, 4, 8] {
        let ring = HashRing::modulo(n);
        let first: Vec<usize> = (0..200u32).map(|u| ring.route(u)).collect();
        let second: Vec<usize> = (0..200u32).map(|u| ring.route(u)).collect();
        assert_eq!(first, second, "routing must be a pure function");
        assert!(first.iter().all(|&s| s < n));
        if n > 1 {
            let mut counts = vec![0usize; n];
            for &s in &first {
                counts[s] += 1;
            }
            assert!(
                counts.iter().all(|&c| c > 0),
                "200 users must touch every one of {n} shards: {counts:?}"
            );
        }
    }
}

#[test]
fn single_shard_is_bit_identical_to_plain_engine() {
    for seed in [3u64, 11] {
        let (split, histories) = world(seed);
        // Two independent builds from the same seed are the same floats;
        // one drives the plain engine, one the sharded engine.
        let plain_sccf = build_sccf(&split, seed);
        let sharded_sccf = build_sccf(&split, seed);

        let mut plain = RealtimeEngine::new(plain_sccf, histories.clone());
        let mut sharded = ShardedEngine::try_new(
            sharded_sccf,
            histories,
            ShardedConfig {
                n_shards: 1,
                queue_capacity: 64,
                router: RouterKind::Modulo,
            },
        )
        .expect("valid config");

        for (k, &(user, item)) in event_stream(seed, 120).iter().enumerate() {
            plain.try_process_event(user, item).expect("ids in range");
            sharded.try_ingest(user, item).expect("ids in range");
            // recommend at a deterministic subsample of points
            if k % 7 == 0 {
                let a = plain_top(&mut plain, user, 8);
                let b = sharded_top(&mut sharded, user, 8);
                assert_bit_identical(&a, &b, &format!("seed {seed}, event {k}, user {user}"));
            }
        }
        // final pass: every user agrees bit-for-bit
        for u in 0..N_USERS {
            let a = plain_top(&mut plain, u, 8);
            let b = sharded_top(&mut sharded, u, 8);
            assert_bit_identical(&a, &b, &format!("seed {seed}, final user {u}"));
        }
        let reports = sharded.shutdown();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].events, 120);
    }
}

#[test]
fn multi_shard_accounts_for_every_event_and_preserves_user_order() {
    let seed = 5u64;
    let (split, histories) = world(seed);
    let sccf = build_sccf(&split, seed);
    let stream = event_stream(seed, 200);

    let mut engine = ShardedEngine::try_new(
        sccf,
        histories.clone(),
        ShardedConfig {
            n_shards: 4,
            queue_capacity: 16, // small: exercises backpressure
            router: RouterKind::Modulo,
        },
    )
    .expect("valid config");
    assert_eq!(engine.n_shards(), 4);
    for &(user, item) in &stream {
        engine.try_ingest(user, item).expect("ids in range");
    }
    engine.flush().expect("barrier");
    // After the barrier, recommendations reflect all ingested events.
    for u in 0..N_USERS {
        let recs = sharded_top(&mut engine, u, 5);
        assert!(!recs.is_empty(), "user {u} must get recommendations");
    }

    let (engines, reports) = engine.shutdown_into_engines();
    assert_eq!(reports.iter().map(|r| r.events).sum::<u64>(), 200);
    assert_eq!(
        reports.iter().map(|r| r.recommends).sum::<u64>(),
        N_USERS as u64
    );
    // Every shard got some work from 24 users (FxHash spread).
    assert!(reports.iter().filter(|r| r.events > 0).count() >= 2);

    // Per-user order: the owning shard's engine history must equal the
    // initial history plus that user's events in stream order.
    let ring = HashRing::modulo(4);
    for u in 0..N_USERS {
        let shard = ring.route(u);
        let mut expect = histories[u as usize].clone();
        expect.extend(stream.iter().filter(|(eu, _)| *eu == u).map(|&(_, i)| i));
        assert_eq!(
            engines[shard].history(u),
            expect.as_slice(),
            "user {u} event order must survive sharding"
        );
    }
}

#[test]
fn sharded_engine_rejects_nothing_it_should_accept() {
    // Smoke: default config (auto shard count) works end to end.
    let (split, histories) = world(9);
    let sccf = build_sccf(&split, 9);
    let mut engine =
        ShardedEngine::try_new(sccf, histories, ShardedConfig::default()).expect("valid config");
    engine.try_ingest(0, 1).expect("ids in range");
    engine.try_ingest(N_USERS - 1, 2).expect("ids in range");
    engine.flush().expect("barrier");
    assert!(!sharded_top(&mut engine, 0, 3).is_empty());
    let reports = engine.shutdown();
    assert_eq!(reports.iter().map(|r| r.events).sum::<u64>(), 2);
}

// ---------------------------------------------------------------------
// ISSUE 3 edge cases: construction and routing must surface
// `ServingError`, never panic or silently drop.

#[test]
fn zero_shard_and_zero_capacity_configs_are_rejected() {
    for (n_shards, queue_capacity) in [(0usize, 64usize), (2, 0)] {
        let (split, histories) = world(17);
        let sccf = build_sccf(&split, 17);
        let err = ShardedEngine::try_new(
            sccf,
            histories,
            ShardedConfig {
                n_shards,
                queue_capacity,
                router: RouterKind::Modulo,
            },
        )
        .err()
        .expect("degenerate config must be rejected");
        assert!(
            matches!(err, ServingError::InvalidConfig(_)),
            "({n_shards}, {queue_capacity}) → {err:?}"
        );
    }
}

#[test]
fn mismatched_or_corrupt_histories_are_rejected_at_construction() {
    let (split, mut histories) = world(19);
    let sccf = build_sccf(&split, 19);
    histories.pop(); // one user short
    let err = ShardedEngine::try_new(sccf, histories, ShardedConfig::default())
        .err()
        .expect("short history table must be rejected");
    assert!(matches!(err, ServingError::InvalidConfig(_)));

    let (split, mut histories) = world(19);
    let sccf = build_sccf(&split, 19);
    histories[3].push(40_000); // item outside the catalog
    let err = ShardedEngine::try_new(sccf, histories, ShardedConfig::default())
        .err()
        .expect("out-of-catalog history item must be rejected");
    assert!(matches!(
        err,
        ServingError::UnknownItem { item: 40_000, .. }
    ));
}

// ---------------------------------------------------------------------
// ISSUE 4: live resharding at the engine level (the bit-identity pins
// against offline snapshot/restore live in tests/serving_api.rs).

/// A consistent-router config — the deployment shape for fleets that
/// expect to reshard live.
fn consistent(n_shards: usize) -> ShardedConfig {
    ShardedConfig {
        n_shards,
        queue_capacity: 32,
        router: RouterKind::Consistent { vnodes: 32 },
    }
}

fn all_slates(engine: &mut ShardedEngine<Fism>) -> Vec<Vec<Scored>> {
    engine
        .recommend_many(&(0..N_USERS).collect::<Vec<_>>(), &RecQuery::top(8))
        .expect("all users valid")
        .into_iter()
        .map(|r| r.items)
        .collect()
}

#[test]
fn live_reshard_n_to_n_is_a_noop() {
    let seed = 51u64;
    let (split, histories) = world(seed);
    let mut engine =
        ShardedEngine::try_new(build_sccf(&split, seed), histories, consistent(3)).expect("valid");
    engine.ingest_batch(&event_stream(seed, 80)).expect("valid");
    engine.flush().expect("barrier");
    let before = all_slates(&mut engine);

    let report = engine.reshard(consistent(3)).expect("no-op reshard");
    assert_eq!(report.moved_users, 0, "same ring ⇒ nobody moves");
    assert_eq!(report.batches, 0);
    assert!(!engine.is_migrating());
    assert_eq!(engine.n_shards(), 3);

    let after = all_slates(&mut engine);
    for (u, (x, y)) in before.iter().zip(&after).enumerate() {
        assert_bit_identical(x, y, &format!("N→N no-op, user {u}"));
    }
    let stats = engine.serving_stats().expect("stats");
    assert_eq!(stats.events, 80);
    assert_eq!(stats.migration.migrated_users, 0);
    engine.shutdown();
}

#[test]
fn live_scale_out_moves_the_ring_diff_and_keeps_serving() {
    let seed = 53u64;
    let (split, histories) = world(seed);
    let mut engine =
        ShardedEngine::try_new(build_sccf(&split, seed), histories, consistent(2)).expect("valid");
    engine
        .ingest_batch(&event_stream(seed, 100))
        .expect("valid");

    let report = engine.reshard(consistent(5)).expect("live scale-out");
    assert_eq!((report.from_shards, report.to_shards), (2, 5));
    // The ring diff is exactly the users whose route changed — and with
    // a consistent router every one of them moved *to a new shard*.
    let (old_ring, new_ring) = (
        consistent(2).ring().expect("valid"),
        consistent(5).ring().expect("valid"),
    );
    let expect_moved = (0..N_USERS)
        .filter(|&u| old_ring.route(u) != new_ring.route(u))
        .count() as u64;
    assert_eq!(report.moved_users, expect_moved);
    assert!(
        expect_moved > 0,
        "the test world must actually migrate someone"
    );
    assert_eq!(engine.n_shards(), 5);

    // Post-quiesce the fleet ingests and serves everyone.
    engine
        .ingest_batch(&event_stream(seed ^ 7, 40))
        .expect("valid");
    engine.flush().expect("barrier");
    for slate in all_slates(&mut engine) {
        assert!(!slate.is_empty());
    }
    let stats = engine.serving_stats().expect("stats");
    assert_eq!(
        stats.events, 140,
        "every event exactly once across the move"
    );
    let reports = engine.shutdown();
    assert_eq!(reports.len(), 5);
    assert_eq!(reports.iter().map(|r| r.events).sum::<u64>(), 140);
}

#[test]
fn live_scale_in_retires_workers_with_complete_accounting() {
    let seed = 57u64;
    let (split, histories) = world(seed);
    let mut engine =
        ShardedEngine::try_new(build_sccf(&split, seed), histories, consistent(4)).expect("valid");
    engine
        .ingest_batch(&event_stream(seed, 120))
        .expect("valid");

    let report = engine.reshard(consistent(2)).expect("live scale-in");
    assert_eq!((report.from_shards, report.to_shards), (4, 2));
    assert!(report.moved_users > 0);
    assert_eq!(engine.n_shards(), 2);

    engine
        .ingest_batch(&event_stream(seed ^ 9, 30))
        .expect("valid");
    engine.flush().expect("barrier");
    let stats = engine.serving_stats().expect("stats");
    // Retired workers' reports stay in the accounting: the totals cover
    // the fleet's whole life, before and after the scale-in.
    assert_eq!(stats.events, 150);
    assert_eq!(stats.shards.len(), 4, "2 live + 2 retired reports");

    let reports = engine.shutdown();
    assert_eq!(reports.len(), 4);
    assert_eq!(reports.iter().map(|r| r.events).sum::<u64>(), 150);
}

#[test]
fn overlapping_reshards_are_rejected_and_ingestion_flows_mid_migration() {
    let seed = 59u64;
    let (split, histories) = world(seed);
    let mut engine =
        ShardedEngine::try_new(build_sccf(&split, seed), histories, consistent(2)).expect("valid");
    engine.ingest_batch(&event_stream(seed, 40)).expect("valid");

    engine.begin_reshard(consistent(4), 2).expect("begin");
    assert!(engine.is_migrating());
    // A second migration cannot start while one is in flight.
    assert!(matches!(
        engine.begin_reshard(consistent(3), 2),
        Err(ServingError::EpochInFlight { .. })
    ));
    // Mid-migration the fleet ingests and recommends for every user —
    // moved and unmoved alike.
    let mut mid_events = 0u64;
    let extra = event_stream(seed ^ 3, 60);
    let mut extra_it = extra.iter();
    while engine.is_migrating() {
        for &(u, i) in extra_it.by_ref().take(5) {
            engine.try_ingest(u, i).expect("mid-migration ingest");
            mid_events += 1;
        }
        let stats = engine.serving_stats().expect("stats mid-migration");
        assert!(stats.migration.in_progress);
        engine.reshard_step().expect("handoff batch");
    }
    for &(u, i) in extra_it {
        engine.try_ingest(u, i).expect("post-migration ingest");
        mid_events += 1;
    }
    engine.flush().expect("barrier");
    let stats = engine.serving_stats().expect("stats");
    assert_eq!(stats.events, 40 + mid_events);
    assert!(!stats.migration.in_progress);
    assert_eq!(stats.migration.pending_users, 0);
    for slate in all_slates(&mut engine) {
        assert!(!slate.is_empty());
    }
    engine.shutdown();
}

// ---------------------------------------------------------------------
// ISSUE 5: the "two-tier disabled" pin. A fleet that never refreshes —
// and a fleet whose tier was installed and then cleared — must be
// bit-identical to the historical shard-local behavior.

#[test]
fn global_tier_disabled_or_cleared_is_bit_identical_to_shard_local() {
    let seed = 67u64;
    let (split, histories) = world(seed);
    let stream = event_stream(seed, 80);
    let cfg = || ShardedConfig {
        n_shards: 4,
        queue_capacity: 32,
        router: RouterKind::Modulo,
    };

    // Baseline: the historical shard-local fleet (no tier, ever).
    let mut baseline =
        ShardedEngine::try_new(build_sccf(&split, seed), histories.clone(), cfg()).expect("valid");
    baseline.ingest_batch(&stream).expect("valid");
    baseline.flush().expect("barrier");
    let expect = all_slates(&mut baseline);

    // A twin that refreshes mid-stream, serves two-tier for a while,
    // then clears the tier: once cleared, every slate and neighborhood
    // returns to the baseline bit-for-bit.
    let mut twin =
        ShardedEngine::try_new(build_sccf(&split, seed), histories, cfg()).expect("valid");
    twin.ingest_batch(&stream[..40]).expect("valid");
    twin.refresh_global_tier().expect("refresh");
    assert!(twin.serving_stats().expect("stats").neighborhood.two_tier);
    twin.ingest_batch(&stream[40..]).expect("valid");
    twin.flush().expect("barrier");
    twin.clear_global_tier().expect("clear");

    let got = all_slates(&mut twin);
    for (u, (x, y)) in expect.iter().zip(&got).enumerate() {
        assert_bit_identical(x, y, &format!("cleared tier, user {u}"));
    }
    for u in 0..N_USERS {
        let a = baseline.neighbors_of(u).expect("valid user");
        let b = twin.neighbors_of(u).expect("valid user");
        assert_bit_identical(&a, &b, &format!("cleared tier, neighborhood of {u}"));
    }
    // Ingestion was never affected: both fleets processed everything.
    assert_eq!(baseline.serving_stats().unwrap().events, 80);
    assert_eq!(twin.serving_stats().unwrap().events, 80);
    baseline.shutdown();
    twin.shutdown();
}

/// ISSUE 6 pin at fleet level: an exhaustive-parameter ANN frozen tier
/// (HNSW with ef ≥ population, candidates exactly reranked) serves
/// **bit-identical** slates and neighborhoods to the flat-scan tier on
/// the same seeded stream — the accelerated path is a drop-in, not an
/// approximation, at these settings.
#[test]
fn exhaustive_hnsw_tier_fleet_is_bit_identical_to_flat_tier_fleet() {
    use sccf_core::FrozenTierMode;
    let seed = 91u64;
    let (split, histories) = world(seed);
    let stream = event_stream(seed, 80);
    let cfg = || ShardedConfig {
        n_shards: 3,
        queue_capacity: 32,
        router: RouterKind::Modulo,
    };
    let run = |mode: FrozenTierMode| {
        let mut fleet = ShardedEngine::try_new(
            build_sccf_with_tier(&split, seed, mode),
            histories.clone(),
            cfg(),
        )
        .expect("valid");
        fleet.ingest_batch(&stream[..40]).expect("valid");
        fleet.refresh_global_tier().expect("refresh");
        fleet.ingest_batch(&stream[40..]).expect("valid");
        fleet.flush().expect("barrier");
        let slates = all_slates(&mut fleet);
        let hoods: Vec<Vec<Scored>> = (0..N_USERS)
            .map(|u| fleet.neighbors_of(u).expect("valid user"))
            .collect();
        let stats = fleet.serving_stats().expect("stats").neighborhood;
        fleet.shutdown();
        (slates, hoods, stats)
    };

    let (flat_slates, flat_hoods, flat_stats) = run(FrozenTierMode::Flat);
    let (ann_slates, ann_hoods, ann_stats) = run(FrozenTierMode::Hnsw {
        ef: N_USERS as usize,
    });

    for (u, (x, y)) in flat_slates.iter().zip(&ann_slates).enumerate() {
        assert_bit_identical(x, y, &format!("hnsw tier, slate of user {u}"));
    }
    for (u, (x, y)) in flat_hoods.iter().zip(&ann_hoods).enumerate() {
        assert_bit_identical(x, y, &format!("hnsw tier, neighborhood of {u}"));
    }

    // The serving surface reports what is actually installed.
    assert!(flat_stats.two_tier && ann_stats.two_tier);
    assert_eq!(flat_stats.tier_mode, FrozenTierMode::Flat);
    assert_eq!(flat_stats.tier_bytes, 0);
    assert!(matches!(ann_stats.tier_mode, FrozenTierMode::Hnsw { .. }));
    assert!(ann_stats.tier_bytes > 0, "ANN structure occupies memory");
    assert!(
        ann_stats.tier_search_ns > 0.0,
        "tier probe latency is measured at install"
    );
}

#[test]
fn out_of_range_ids_surface_errors_and_leave_workers_alive() {
    let (split, histories) = world(23);
    let sccf = build_sccf(&split, 23);
    let mut engine = ShardedEngine::try_new(
        sccf,
        histories,
        ShardedConfig {
            n_shards: 4,
            queue_capacity: 16,
            router: RouterKind::Modulo,
        },
    )
    .expect("valid config");

    assert!(matches!(
        engine.try_ingest(N_USERS + 5, 0),
        Err(ServingError::UnknownUser { .. })
    ));
    assert!(matches!(
        engine.try_ingest(0, N_ITEMS + 7),
        Err(ServingError::UnknownItem { .. })
    ));
    assert!(matches!(
        engine.try_recommend(N_USERS, &RecQuery::top(3)),
        Err(ServingError::UnknownUser { .. })
    ));
    // A batch with one bad id applies nothing (atomic validation).
    assert!(matches!(
        engine.ingest_batch(&[(0, 1), (1, 2), (2, N_ITEMS)]),
        Err(ServingError::UnknownItem { .. })
    ));

    // Every worker is still alive and serving.
    engine.try_ingest(0, 1).expect("valid event");
    engine.flush().expect("barrier");
    for u in 0..N_USERS {
        assert!(
            !engine
                .try_recommend(u, &RecQuery::top(3))
                .expect("valid user")
                .items
                .is_empty(),
            "user {u} must still be served after rejected requests"
        );
    }
    let stats = engine.serving_stats().expect("stats");
    assert_eq!(stats.events, 1, "rejected events must not be counted");
    assert_eq!(stats.recommends, N_USERS as u64);
    assert_eq!(stats.shards.len(), 4);
    let reports = engine.shutdown();
    assert_eq!(reports.iter().map(|r| r.events).sum::<u64>(), 1);
}
