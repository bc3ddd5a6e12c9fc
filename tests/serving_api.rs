//! The unified `ServingApi` surface (ISSUE 3 acceptance):
//!
//! * one generic driver serves the plain and the sharded engine with
//!   zero engine-specific glue, and at `n_shards = 1` the two are
//!   bit-identical;
//! * `recommend_many` ≡ sequential `try_recommend`s and
//!   `ingest_batch` ≡ sequential `try_ingest`s (same floats, same
//!   counters) on both engines;
//! * the snapshot artifact is engine-agnostic: sharded
//!   `snapshot → restore` at N→N is recommendation-identical to the
//!   drained source fleet, N→1 (plain or single-shard) and N→2N equal
//!   a fresh engine of the target shape built from the same drained
//!   histories — state carries completely, only the partitioning
//!   changes;
//! * typed query knobs behave: forcing `Exact` on a scan-built engine
//!   changes nothing, `Ann` errors, exclusions shape the slate.

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
    let data = Dataset::from_interactions("api", N_USERS as usize, N_ITEMS as usize, &inter, None);
    let split = LeaveOneOut::split(&data);
    let histories = (0..N_USERS).map(|u| split.train_plus_val(u)).collect();
    (split, histories)
}

/// Deterministic build: same seed in, same floats out.
fn build_sccf(split: &LeaveOneOut, seed: u64) -> Sccf<Fism> {
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
            frozen_tier: sccf_core::FrozenTierMode::Flat,
        },
    );
    sccf.refresh_for_test(split);
    sccf
}

fn event_stream(seed: u64, len: usize) -> Vec<(u32, u32)> {
    let mut rng = sccf::util::rng::rng_for(seed, 31);
    (0..len)
        .map(|_| (rng.gen_range(0..N_USERS), rng.gen_range(0..N_ITEMS)))
        .collect()
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

/// The whole point of the API: one function, any engine. Ingests a
/// stream, flushes, and returns every user's slate.
fn drive(api: &mut impl ServingApi, stream: &[(u32, u32)]) -> Vec<Vec<Scored>> {
    api.ingest_batch(stream).expect("stream ids are valid");
    api.flush().expect("barrier");
    api.recommend_many(&(0..N_USERS).collect::<Vec<_>>(), &RecQuery::top(8))
        .expect("all users exist")
        .into_iter()
        .map(|r| r.items)
        .collect()
}

#[test]
fn one_driver_serves_both_engines_bit_identically() {
    let seed = 3u64;
    let (split, histories) = world(seed);
    let stream = event_stream(seed, 120);

    let mut plain = RealtimeEngine::new(build_sccf(&split, seed), histories.clone());
    let mut sharded = ShardedEngine::try_new(
        build_sccf(&split, seed),
        histories,
        ShardedConfig {
            n_shards: 1,
            queue_capacity: 64,
            router: RouterKind::Modulo,
        },
    )
    .expect("valid config");

    let a = drive(&mut plain, &stream);
    let b = drive(&mut sharded, &stream);
    for (u, (x, y)) in a.iter().zip(&b).enumerate() {
        assert_bit_identical(x, y, &format!("user {u}"));
    }

    // Unified stats read identically too.
    let sa = plain.serving_stats().expect("plain stats");
    let sb = sharded.serving_stats().expect("sharded stats");
    assert_eq!(sa.events, stream.len() as u64);
    assert_eq!(sb.events, stream.len() as u64);
    assert_eq!(sa.recommends, N_USERS as u64);
    assert_eq!(sb.recommends, N_USERS as u64);
    assert!(sa.shards.is_empty());
    assert_eq!(sb.shards.len(), 1);
}

#[test]
fn recommend_many_equals_sequential_recommends() {
    for n_shards in [1usize, 4] {
        let seed = 7u64;
        let (split, histories) = world(seed);
        let mut engine = ShardedEngine::try_new(
            build_sccf(&split, seed),
            histories,
            ShardedConfig {
                n_shards,
                queue_capacity: 32,
                router: RouterKind::Modulo,
            },
        )
        .expect("valid config");
        engine
            .ingest_batch(&event_stream(seed, 90))
            .expect("valid stream");

        // An adversarial user list: duplicates, non-monotone order.
        let users: Vec<u32> = (0..N_USERS).chain([3, 3, 17, 0]).rev().collect();
        let query = RecQuery::top(6);
        let batched = engine
            .recommend_many(&users, &query)
            .expect("all users valid");
        assert_eq!(batched.len(), users.len());
        for (i, &u) in users.iter().enumerate() {
            let single = engine.try_recommend(u, &query).expect("valid user");
            assert_bit_identical(
                &batched[i].items,
                &single.items,
                &format!("{n_shards} shards, position {i} (user {u})"),
            );
        }
        engine.shutdown();
    }
}

#[test]
fn ingest_batch_equals_sequential_ingests() {
    let seed = 13u64;
    let (split, histories) = world(seed);
    let stream = event_stream(seed, 100);

    let mut batched = ShardedEngine::try_new(
        build_sccf(&split, seed),
        histories.clone(),
        ShardedConfig {
            n_shards: 4,
            queue_capacity: 16,
            router: RouterKind::Modulo,
        },
    )
    .expect("valid config");
    let mut sequential = ShardedEngine::try_new(
        build_sccf(&split, seed),
        histories,
        ShardedConfig {
            n_shards: 4,
            queue_capacity: 16,
            router: RouterKind::Modulo,
        },
    )
    .expect("valid config");

    batched.ingest_batch(&stream).expect("valid stream");
    for &(u, i) in &stream {
        sequential.try_ingest(u, i).expect("valid event");
    }
    let users: Vec<u32> = (0..N_USERS).collect();
    let a = batched
        .recommend_many(&users, &RecQuery::top(8))
        .expect("valid");
    let b = sequential
        .recommend_many(&users, &RecQuery::top(8))
        .expect("valid");
    for (u, (x, y)) in a.iter().zip(&b).enumerate() {
        assert_bit_identical(&x.items, &y.items, &format!("user {u}"));
    }
    assert_eq!(
        batched.serving_stats().expect("stats").events,
        sequential.serving_stats().expect("stats").events,
    );
}

#[test]
fn plain_and_sharded_agree_on_query_validation_edge_cases() {
    // Both implementations must reject an unsatisfiable query even over
    // an empty user list — code written against one engine cannot
    // observe a difference when the other is swapped in.
    let seed = 43u64;
    let (split, histories) = world(seed);
    let mut plain = RealtimeEngine::new(build_sccf(&split, seed), histories.clone());
    let mut sharded = ShardedEngine::try_new(
        build_sccf(&split, seed),
        histories,
        ShardedConfig {
            n_shards: 2,
            queue_capacity: 16,
            router: RouterKind::Modulo,
        },
    )
    .expect("valid config");
    let ann = RecQuery::top(5).with_source(CandidateSource::Ann);
    let bad_exclude = RecQuery::top(5).excluding(Exclusion::HistoryAnd(vec![N_ITEMS + 9]));
    assert!(matches!(
        plain.recommend_many(&[], &ann),
        Err(ServingError::AnnUnavailable)
    ));
    assert!(matches!(
        sharded.recommend_many(&[], &ann),
        Err(ServingError::AnnUnavailable)
    ));
    assert!(matches!(
        plain.recommend_many(&[], &bad_exclude),
        Err(ServingError::UnknownItem { .. })
    ));
    assert!(matches!(
        sharded.recommend_many(&[], &bad_exclude),
        Err(ServingError::UnknownItem { .. })
    ));
}

#[test]
fn shard_view_engine_batches_are_atomic_for_unowned_users() {
    // A shard-view RealtimeEngine (recovered via shutdown_into_engines)
    // owns a user subset; a batch naming a foreign user must reject
    // atomically — no partial application before the NotOwned error.
    let seed = 47u64;
    let (split, histories) = world(seed);
    let engine = ShardedEngine::try_new(
        build_sccf(&split, seed),
        histories,
        ShardedConfig {
            n_shards: 2,
            queue_capacity: 16,
            router: RouterKind::Modulo,
        },
    )
    .expect("valid config");
    let (mut engines, _) = engine.shutdown_into_engines();
    let mut shard0 = engines.remove(0);
    let owned: Vec<u32> = (0..N_USERS).filter(|&u| shard0.owns(u)).collect();
    let foreign = (0..N_USERS)
        .find(|&u| !shard0.owns(u))
        .expect("2 shards ⇒ shard 0 does not own everyone");
    let probe = owned[0];
    let before = shard0.history(probe).len();

    let err = shard0
        .ingest_batch(&[(probe, 1), (foreign, 2)])
        .expect_err("foreign user must fail the batch");
    assert!(matches!(err, ServingError::NotOwned { .. }), "{err:?}");
    assert_eq!(
        shard0.history(probe).len(),
        before,
        "atomic batch: the owned user's event must not have been applied"
    );
    assert!(matches!(
        shard0.recommend_many(&[probe, foreign], &RecQuery::top(3)),
        Err(ServingError::NotOwned { .. })
    ));
    // Owned-only traffic still serves.
    assert_eq!(shard0.ingest_batch(&[(probe, 1)]).expect("owned user"), 1);
    assert!(!shard0
        .try_recommend(probe, &RecQuery::top(3))
        .expect("owned user")
        .items
        .is_empty());
}

/// Regression: one bad event — a user this engine does not host, an
/// item past the catalog — gets one error whichever entry point it
/// comes in by. Ownership is checked before the item everywhere, so
/// the plain engine's `try_ingest` no longer answers `UnknownItem`
/// where its own `ingest_batch` and the sharded router answer
/// `NotOwned`.
#[test]
fn a_foreign_user_with_a_bad_item_is_not_owned_at_every_entry_point() {
    let seed = 47u64;
    let (split, histories) = world(seed);
    let config = |n_shards, router| ShardedConfig {
        n_shards,
        queue_capacity: 16,
        router,
    };
    let fleet = ShardedEngine::try_new(
        build_sccf(&split, seed),
        histories.clone(),
        config(2, RouterKind::Modulo),
    )
    .expect("valid config");
    let (mut engines, _) = fleet.shutdown_into_engines();
    let mut view = engines.remove(0);
    // One process's window of a two-shard ring: it hosts shard 0 only.
    let slice_router = RouterKind::Slice {
        total: 2,
        base: 0,
        vnodes: 0,
    };
    let mut slice =
        ShardedEngine::try_new(build_sccf(&split, seed), histories, config(1, slice_router))
            .expect("valid config");

    let bad_item = N_ITEMS;
    let foreign = (0..N_USERS)
        .find(|&u| !view.owns(u))
        .expect("2 shards ⇒ shard 0 does not own everyone");
    let not_owned = ServingError::NotOwned { user: foreign };
    let err = view.try_ingest(foreign, bad_item).expect_err("bad event");
    assert_eq!(err, not_owned, "RealtimeEngine::try_ingest");
    let err = view
        .ingest_batch(&[(foreign, bad_item)])
        .expect_err("bad event");
    assert_eq!(err, not_owned, "RealtimeEngine::ingest_batch");

    let foreign = (0..N_USERS)
        .find(|&u| slice.neighbors_of(u).is_err())
        .expect("a one-of-two window does not host everyone");
    let err = slice.try_ingest(foreign, bad_item).expect_err("bad event");
    assert_eq!(
        err,
        ServingError::NotOwned { user: foreign },
        "ShardedEngine::try_ingest"
    );
    slice.shutdown();
}

#[test]
fn forced_exact_source_matches_configured_on_scan_builds() {
    let seed = 5u64;
    let (split, histories) = world(seed);
    let mut engine = RealtimeEngine::new(build_sccf(&split, seed), histories);
    engine.ingest_batch(&event_stream(seed, 40)).expect("valid");
    for u in 0..N_USERS {
        let configured = engine.try_recommend(u, &RecQuery::top(8)).expect("valid");
        let exact = engine
            .try_recommend(u, &RecQuery::top(8).with_source(CandidateSource::Exact))
            .expect("valid");
        assert_bit_identical(&configured.items, &exact.items, &format!("user {u}"));
    }
    // No HNSW was built, so forcing ANN is a typed error on both shapes.
    assert!(matches!(
        engine.try_recommend(0, &RecQuery::top(8).with_source(CandidateSource::Ann)),
        Err(ServingError::AnnUnavailable)
    ));
}

#[test]
fn exclusion_policies_apply_through_the_sharded_path() {
    let seed = 11u64;
    let (split, histories) = world(seed);
    let mut engine = ShardedEngine::try_new(
        build_sccf(&split, seed),
        histories.clone(),
        ShardedConfig {
            n_shards: 3,
            queue_capacity: 16,
            router: RouterKind::Modulo,
        },
    )
    .expect("valid config");
    let user = 2u32;
    let default = engine
        .try_recommend(user, &RecQuery::top(5))
        .expect("valid");
    assert!(!default.items.is_empty());
    let banned = default.items[0].id;
    let filtered = engine
        .try_recommend(
            user,
            &RecQuery::top(5).excluding(Exclusion::HistoryAnd(vec![banned])),
        )
        .expect("valid");
    assert!(filtered.items.iter().all(|s| s.id != banned));
    // Exclusion ids are validated at the router.
    assert!(matches!(
        engine.try_recommend(
            user,
            &RecQuery::top(5).excluding(Exclusion::HistoryAnd(vec![N_ITEMS + 100])),
        ),
        Err(ServingError::UnknownItem { .. })
    ));
    // Nothing-excluded may resurface the user's own history.
    let open = engine
        .try_recommend(
            user,
            &RecQuery::top(N_ITEMS as usize).excluding(Exclusion::Nothing),
        )
        .expect("valid");
    let hist: Vec<u32> = histories[user as usize].clone();
    assert!(
        open.items.iter().any(|s| hist.contains(&s.id)),
        "unmasked query should rank history items too"
    );
}

// ---------------------------------------------------------------------
// Snapshot / offline resharding N→M.

/// Build a drained N-shard fleet with a served stream, return it plus
/// the stream it saw.
fn drained_fleet(seed: u64, n_shards: usize) -> (ShardedEngine<Fism>, LeaveOneOut) {
    let (split, histories) = world(seed);
    let mut engine = ShardedEngine::try_new(
        build_sccf(&split, seed),
        histories,
        ShardedConfig {
            n_shards,
            queue_capacity: 32,
            router: RouterKind::Modulo,
        },
    )
    .expect("valid config");
    engine
        .ingest_batch(&event_stream(seed, 150))
        .expect("valid stream");
    engine.flush().expect("barrier");
    (engine, split)
}

fn slates(api: &mut impl ServingApi) -> Vec<Vec<Scored>> {
    api.recommend_many(&(0..N_USERS).collect::<Vec<_>>(), &RecQuery::top(8))
        .expect("all users valid")
        .into_iter()
        .map(|r| r.items)
        .collect()
}

#[test]
fn sharded_snapshot_restore_same_shard_count_is_identical() {
    let seed = 29u64;
    let (mut source, split) = drained_fleet(seed, 3);
    let before = slates(&mut source);
    let artifact = source.snapshot_state().expect("snapshot");

    let mut restored = ShardedEngine::restore(
        build_sccf(&split, seed),
        &artifact,
        ShardedConfig {
            n_shards: 3,
            queue_capacity: 32,
            router: RouterKind::Modulo,
        },
    )
    .expect("same-shape restore");
    let after = slates(&mut restored);
    for (u, (x, y)) in before.iter().zip(&after).enumerate() {
        assert_bit_identical(x, y, &format!("N→N user {u}"));
    }
}

#[test]
fn reshard_to_any_count_equals_fresh_engine_on_drained_state() {
    let seed = 31u64;
    let (mut source, split) = drained_fleet(seed, 3);
    let artifact = source.snapshot_state().expect("snapshot");
    let drained: Vec<Vec<u32>> = sccf::core::decode_histories(&artifact).expect("own artifact");

    // N→1 and N→2N: the restored fleet must equal a fresh fleet of the
    // target shape built from the same drained histories — the snapshot
    // carries the complete serving state, restore only re-partitions.
    for target in [1usize, 6] {
        let mut restored = ShardedEngine::restore(
            build_sccf(&split, seed),
            &artifact,
            ShardedConfig {
                n_shards: target,
                queue_capacity: 32,
                router: RouterKind::Modulo,
            },
        )
        .expect("reshard restore");
        let mut fresh = ShardedEngine::try_new(
            build_sccf(&split, seed),
            drained.clone(),
            ShardedConfig {
                n_shards: target,
                queue_capacity: 32,
                router: RouterKind::Modulo,
            },
        )
        .expect("fresh fleet");
        let a = slates(&mut restored);
        let b = slates(&mut fresh);
        for (u, (x, y)) in a.iter().zip(&b).enumerate() {
            assert_bit_identical(x, y, &format!("3→{target} user {u}"));
        }
    }
}

#[test]
fn snapshot_artifact_is_engine_agnostic() {
    let seed = 37u64;
    let (mut source, split) = drained_fleet(seed, 4);
    let artifact = source.snapshot_state().expect("snapshot");

    // Sharded artifact → plain engine (N→1 failover)…
    let mut plain =
        RealtimeEngine::restore(build_sccf(&split, seed), &artifact).expect("plain restore");
    // …must agree with a single-shard restore of the same artifact.
    let mut single = ShardedEngine::restore(
        build_sccf(&split, seed),
        &artifact,
        ShardedConfig {
            n_shards: 1,
            queue_capacity: 32,
            router: RouterKind::Modulo,
        },
    )
    .expect("single-shard restore");
    let a = slates(&mut plain);
    let b = slates(&mut single);
    for (u, (x, y)) in a.iter().zip(&b).enumerate() {
        assert_bit_identical(x, y, &format!("plain vs 1-shard user {u}"));
    }

    // And the plain engine's own snapshot restores into a sharded fleet.
    let plain_artifact = plain.snapshot_state().expect("plain snapshot");
    let mut fleet = ShardedEngine::restore(
        build_sccf(&split, seed),
        &plain_artifact,
        ShardedConfig {
            n_shards: 2,
            queue_capacity: 32,
            router: RouterKind::Modulo,
        },
    )
    .expect("plain artifact → 2 shards");
    assert_eq!(slates(&mut fleet).len(), N_USERS as usize);

    // Garbage artifacts surface a typed snapshot error.
    assert!(matches!(
        ShardedEngine::restore(
            build_sccf(&split, seed),
            b"not a snapshot",
            ShardedConfig::default(),
        ),
        Err(ServingError::Snapshot(_))
    ));
}

#[test]
fn restored_fleet_keeps_serving_writes() {
    // Restore is not a read-only replica: the resharded fleet ingests
    // and its recommendations move.
    let seed = 41u64;
    let (mut source, split) = drained_fleet(seed, 2);
    let artifact = source.snapshot_state().expect("snapshot");
    let mut fleet = ShardedEngine::restore(
        build_sccf(&split, seed),
        &artifact,
        ShardedConfig {
            n_shards: 5,
            queue_capacity: 16,
            router: RouterKind::Modulo,
        },
    )
    .expect("reshard restore");
    fleet
        .ingest_batch(&event_stream(seed ^ 0xF00D, 60))
        .expect("valid stream");
    fleet.flush().expect("barrier");
    let stats = fleet.serving_stats().expect("stats");
    assert_eq!(stats.events, 60);
    assert_eq!(stats.shards.len(), 5);
    for u in 0..N_USERS {
        assert!(!fleet
            .try_recommend(u, &RecQuery::top(4))
            .expect("valid user")
            .items
            .is_empty());
    }
}

// ---------------------------------------------------------------------
// Live resharding (ISSUE 4): the correctness pins.
//
// * Post-quiesce state is bit-identical to an offline `snapshot()` +
//   `restore(.., new_cfg)` of the same histories.
// * Events ingested *during* the migration land exactly once, in
//   per-user order — pinned both directly (the snapshot's histories
//   equal the replayed stream) and behaviorally (slates match a static
//   target-shape fleet that ingested the same stream).
// * Progress counters surface through `ServingStats::migration`.

fn consistent(n_shards: usize) -> ShardedConfig {
    ShardedConfig {
        n_shards,
        queue_capacity: 32,
        router: RouterKind::Consistent { vnodes: 32 },
    }
}

/// Begin a reshard, then alternate small ingest bursts with handoff
/// batches until the migration quiesces — the deployment interleaving
/// the runbook (docs/OPERATIONS.md) prescribes. Ingests all of
/// `during`, draining whatever the migration did not overlap.
fn reshard_interleaved(
    engine: &mut ShardedEngine<Fism>,
    new_cfg: ShardedConfig,
    batch: usize,
    during: &[(u32, u32)],
) {
    engine.begin_reshard(new_cfg, batch).expect("begin reshard");
    let mut events = during.iter();
    while engine.is_migrating() {
        for &(u, i) in events.by_ref().take(7) {
            engine.try_ingest(u, i).expect("mid-migration ingest");
        }
        engine.reshard_step().expect("handoff batch");
    }
    for &(u, i) in events {
        engine.try_ingest(u, i).expect("post-migration ingest");
    }
}

#[test]
fn live_reshard_is_bit_identical_to_offline_restore_and_static_fleet() {
    // Property-style sweep: scale-out and scale-in, several seeds, with
    // traffic flowing during every migration.
    for (seed, from, to) in [(3u64, 3usize, 5usize), (11, 2, 5), (29, 4, 2)] {
        let (split, histories) = world(seed);
        let pre = event_stream(seed, 60);
        let during = event_stream(seed ^ 0xABCD, 90);
        let full: Vec<(u32, u32)> = pre.iter().chain(&during).copied().collect();

        // --- live path: reshard while `during` flows ---------------
        let mut live = ShardedEngine::try_new(
            build_sccf(&split, seed),
            histories.clone(),
            consistent(from),
        )
        .expect("valid config");
        live.ingest_batch(&pre).expect("pre-migration stream");
        reshard_interleaved(&mut live, consistent(to), 4, &during);
        live.flush().expect("barrier");

        // Exactly-once, directly: the merged histories equal the
        // initial histories plus the full stream in per-user order.
        let stats = live.serving_stats().expect("stats");
        assert_eq!(stats.events, full.len() as u64, "seed {seed}: exactly once");
        let live_artifact = live.snapshot_state().expect("snapshot");
        let live_histories = sccf::core::decode_histories(&live_artifact).expect("own artifact");
        let mut expect = histories.clone();
        for &(u, i) in &full {
            expect[u as usize].push(i);
        }
        assert_eq!(
            live_histories, expect,
            "seed {seed}: every event exactly once, per-user order preserved"
        );
        let live_slates = slates(&mut live);

        // --- offline comparator: twin fleet, same stream, snapshot +
        // restore at the target shape -------------------------------
        let mut twin = ShardedEngine::try_new(
            build_sccf(&split, seed),
            histories.clone(),
            consistent(from),
        )
        .expect("valid config");
        twin.ingest_batch(&full).expect("full stream");
        let artifact = twin.snapshot_state().expect("twin snapshot");
        let mut restored =
            ShardedEngine::restore(build_sccf(&split, seed), &artifact, consistent(to))
                .expect("offline reshard");
        let offline_slates = slates(&mut restored);
        for (u, (x, y)) in live_slates.iter().zip(&offline_slates).enumerate() {
            assert_bit_identical(
                x,
                y,
                &format!("seed {seed}, live {from}→{to} vs offline restore, user {u}"),
            );
        }

        // --- static comparator: a fleet born at the target shape that
        // replayed the same stream ----------------------------------
        let mut static_fleet =
            ShardedEngine::try_new(build_sccf(&split, seed), histories.clone(), consistent(to))
                .expect("valid config");
        static_fleet.ingest_batch(&full).expect("full stream");
        let static_slates = slates(&mut static_fleet);
        for (u, (x, y)) in live_slates.iter().zip(&static_slates).enumerate() {
            assert_bit_identical(
                x,
                y,
                &format!("seed {seed}, live {from}→{to} vs static {to}-shard fleet, user {u}"),
            );
        }
    }
}

// ---------------------------------------------------------------------
// Two-tier cross-shard neighborhoods (ISSUE 5): the correctness pins.
//
// * N-shard fleet + a global-tier refresh after every event ⇒ Eq. 11
//   neighbor sets identical to the N=1 plain engine on the same stream
//   (the full-population-recall recovery the tier exists for).
// * Without a refresh the tier is absent and the fleet is bit-identical
//   to the historical shard-local behavior (pinned in tests/sharded.rs).
// * Staleness semantics: same-shard neighbors are always fresh (the
//   local delta wins); cross-shard neighbors are frozen at the last
//   refresh and catch up on the next one.
// * `ServingStats::neighborhood` tracks epoch, coverage and staleness.

#[test]
fn synchronous_refresh_recovers_plain_engine_neighborhoods_exactly() {
    for (seed, n_shards) in [(71u64, 4usize), (73, 8)] {
        let (split, histories) = world(seed);
        let mut plain = RealtimeEngine::new(build_sccf(&split, seed), histories.clone());
        let mut fleet = ShardedEngine::try_new(
            build_sccf(&split, seed),
            histories,
            ShardedConfig {
                n_shards,
                queue_capacity: 32,
                router: RouterKind::Modulo,
            },
        )
        .expect("valid config");
        fleet.refresh_global_tier().expect("initial refresh");

        for (k, &(user, item)) in event_stream(seed, 40).iter().enumerate() {
            let (plain_neighbors, _) = plain.try_process_event(user, item).expect("valid ids");
            fleet.try_ingest(user, item).expect("valid ids");
            // Synchronous cadence: a refresh after *every* event keeps
            // the frozen tier exactly as fresh as the local deltas.
            fleet.refresh_global_tier().expect("refresh");
            let fleet_neighbors = fleet.neighbors_of(user).expect("owned user");
            assert_bit_identical(
                &plain_neighbors,
                &fleet_neighbors,
                &format!("seed {seed}, {n_shards} shards, event {k}, user {user}"),
            );
            // And not just for the event's user: every user's Eq. 11
            // neighborhood matches the plain engine's at a subsample.
            if k % 13 == 0 {
                for u in (0..N_USERS).step_by(5) {
                    let a = plain.neighbors_of(u).expect("valid user");
                    let b = fleet.neighbors_of(u).expect("valid user");
                    assert_bit_identical(&a, &b, &format!("seed {seed}, probe user {u}"));
                }
            }
        }
        fleet.shutdown();
    }
}

#[test]
fn local_delta_wins_and_cross_shard_staleness_clears_on_refresh() {
    let seed = 79u64;
    let (split, histories) = world(seed);
    // β ≥ population: every user appears in every neighborhood, so we
    // can read off the similarity each observer sees for a probe user.
    let fism = Fism::train(
        &split,
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
        &split,
        SccfConfig {
            user_based: UserBasedConfig {
                beta: N_USERS as usize,
                recent_window: 5,
            },
            candidate_n: 10,
            integrator: IntegratorConfig {
                epochs: 2,
                seed,
                ..Default::default()
            },
            threads: 1,
            ui_ann: None,
            frozen_tier: sccf_core::FrozenTierMode::Flat,
        },
    );
    sccf.refresh_for_test(&split);
    let mut fleet = ShardedEngine::try_new(
        sccf,
        histories,
        ShardedConfig {
            n_shards: 2,
            queue_capacity: 32,
            router: RouterKind::Modulo,
        },
    )
    .expect("valid config");
    fleet.refresh_global_tier().expect("initial refresh");

    let ring = HashRing::modulo(2);
    // A probe user, one observer on her shard, one on the other.
    let probe = 0u32;
    let same = (1..N_USERS)
        .find(|&u| ring.route(u) == ring.route(probe))
        .unwrap();
    let other = (1..N_USERS)
        .find(|&u| ring.route(u) != ring.route(probe))
        .unwrap();
    let sim_of = |neigh: &[Scored], id: u32| {
        neigh
            .iter()
            .find(|s| s.id == id)
            .unwrap_or_else(|| panic!("β covers the population, user {id} must appear"))
            .score
    };
    let before_same = sim_of(&fleet.neighbors_of(same).unwrap(), probe);
    let before_other = sim_of(&fleet.neighbors_of(other).unwrap(), probe);

    // Move the probe user's vector: a burst of events on her shard.
    for item in [1u32, 7, 12, 3, 16] {
        fleet.try_ingest(probe, item).expect("valid ids");
    }
    fleet.flush().expect("barrier");

    let after_same = sim_of(&fleet.neighbors_of(same).unwrap(), probe);
    let after_other = sim_of(&fleet.neighbors_of(other).unwrap(), probe);
    assert_ne!(
        before_same.to_bits(),
        after_same.to_bits(),
        "same-shard observer reads the probe from the fresh local delta"
    );
    assert_eq!(
        before_other.to_bits(),
        after_other.to_bits(),
        "cross-shard observer reads the probe from the frozen tier until a refresh"
    );

    // The next refresh clears the staleness: both observers agree on
    // the probe's similarity derived from her post-burst vector.
    fleet.refresh_global_tier().expect("refresh");
    let refreshed_other = sim_of(&fleet.neighbors_of(other).unwrap(), probe);
    assert_ne!(
        before_other.to_bits(),
        refreshed_other.to_bits(),
        "refresh must propagate the probe's new vector across shards"
    );
    fleet.shutdown();
}

#[test]
fn neighborhood_stats_track_epoch_coverage_and_staleness() {
    let seed = 83u64;
    let (split, histories) = world(seed);
    let mut fleet = ShardedEngine::try_new(
        build_sccf(&split, seed),
        histories,
        ShardedConfig {
            n_shards: 3,
            queue_capacity: 32,
            router: RouterKind::Modulo,
        },
    )
    .expect("valid config");

    // Before any refresh: the section reports the shard-local world.
    let s0 = fleet.serving_stats().expect("stats");
    assert!(!s0.neighborhood.two_tier);
    assert_eq!(s0.neighborhood.epoch, 0);
    assert_eq!(s0.neighborhood.users_covered, 0);
    assert_eq!(s0.neighborhood.events_since_refresh, 0);

    let report = fleet.refresh_global_tier().expect("refresh");
    assert_eq!(report.epoch, 1);
    assert_eq!(report.users, N_USERS as u64);
    assert!(report.batches >= 1);
    let s1 = fleet.serving_stats().expect("stats");
    assert!(s1.neighborhood.two_tier);
    assert_eq!(s1.neighborhood.epoch, 1);
    assert_eq!(s1.neighborhood.users_covered, N_USERS as u64);
    assert_eq!(s1.neighborhood.events_since_refresh, 0);
    assert!(s1.neighborhood.last_refresh_ms >= 0.0);

    fleet.ingest_batch(&event_stream(seed, 25)).expect("valid");
    let s2 = fleet.serving_stats().expect("stats");
    assert_eq!(
        s2.neighborhood.events_since_refresh, 25,
        "staleness counts events accepted since the last refresh"
    );
    fleet.refresh_global_tier().expect("second refresh");
    let s3 = fleet.serving_stats().expect("stats");
    assert_eq!(s3.neighborhood.epoch, 2);
    assert_eq!(s3.neighborhood.events_since_refresh, 0);

    // Disabling returns the section to the shard-local shape.
    fleet.clear_global_tier().expect("clear");
    let s4 = fleet.serving_stats().expect("stats");
    assert!(!s4.neighborhood.two_tier);
    assert_eq!(s4.neighborhood.users_covered, 0);
    fleet.shutdown();
}

#[test]
fn persisted_tier_installs_into_a_restored_fleet() {
    // The operational failover path: persist the tier snapshot next to
    // the engine snapshot; after restore (which always comes up
    // tier-less), install the persisted tier instead of paying a full
    // re-export — neighborhoods must match the source fleet's exactly.
    let seed = 97u64;
    let (split, histories) = world(seed);
    let mut source = ShardedEngine::try_new(
        build_sccf(&split, seed),
        histories,
        ShardedConfig {
            n_shards: 3,
            queue_capacity: 32,
            router: RouterKind::Modulo,
        },
    )
    .expect("valid config");
    source.ingest_batch(&event_stream(seed, 60)).expect("valid");
    source.refresh_global_tier().expect("refresh");
    let engine_artifact = source.snapshot_state().expect("snapshot");
    let tier_artifact = source.global_tier().expect("tier installed").encode();
    let expect: Vec<Vec<Scored>> = (0..N_USERS)
        .map(|u| source.neighbors_of(u).expect("valid user"))
        .collect();

    let mut restored = ShardedEngine::restore(
        build_sccf(&split, seed),
        &engine_artifact,
        ShardedConfig {
            n_shards: 3,
            queue_capacity: 32,
            router: RouterKind::Modulo,
        },
    )
    .expect("restore");
    assert!(
        !restored.serving_stats().unwrap().neighborhood.two_tier,
        "restore always comes up tier-less"
    );
    let tier = sccf::core::GlobalNeighborSnapshot::decode(&tier_artifact).expect("own artifact");
    restored.install_global_tier(tier).expect("install");
    let stats = restored.serving_stats().expect("stats");
    assert!(stats.neighborhood.two_tier);
    assert_eq!(stats.neighborhood.epoch, 1);
    assert_eq!(stats.neighborhood.users_covered, N_USERS as u64);
    for u in 0..N_USERS {
        let got = restored.neighbors_of(u).expect("valid user");
        assert_bit_identical(
            &expect[u as usize],
            &got,
            &format!("restored+installed, user {u}"),
        );
    }

    // Mismatched snapshots are rejected before touching any worker.
    let wrong_pop = sccf::core::GlobalNeighborSnapshot::build(9, 7, 8, std::iter::empty());
    assert!(matches!(
        restored.install_global_tier(wrong_pop),
        Err(ServingError::InvalidConfig(_))
    ));
    let wrong_dim =
        sccf::core::GlobalNeighborSnapshot::build(9, N_USERS as usize, 3, std::iter::empty());
    assert!(matches!(
        restored.install_global_tier(wrong_dim),
        Err(ServingError::InvalidConfig(_))
    ));
    // A corrupt-but-decodable snapshot whose frozen windows reference
    // out-of-catalog items is rejected at install, before it could
    // panic a worker's Eq. 12 accumulation at query time.
    let bad_windows = sccf::core::GlobalNeighborSnapshot::build(
        9,
        N_USERS as usize,
        8,
        vec![(0u32, vec![0.0f32; 8], vec![N_ITEMS + 5])],
    );
    assert!(matches!(
        restored.install_global_tier(bad_windows),
        Err(ServingError::UnknownItem { .. })
    ));
    assert!(
        restored.serving_stats().unwrap().neighborhood.two_tier,
        "rejected installs must leave the previous tier serving"
    );
    source.shutdown();
    restored.shutdown();
}

#[test]
fn refresh_survives_scale_out_and_new_workers_inherit_the_tier() {
    let seed = 89u64;
    let (split, histories) = world(seed);
    let mut fleet =
        ShardedEngine::try_new(build_sccf(&split, seed), histories, consistent(2)).expect("valid");
    fleet.ingest_batch(&event_stream(seed, 30)).expect("valid");
    fleet.refresh_global_tier().expect("refresh");

    // Live scale-out with the tier installed: spawned workers inherit
    // it, and every user's neighborhood stays full-population.
    fleet.reshard(consistent(5)).expect("live reshard");
    let s = fleet.serving_stats().expect("stats");
    assert!(s.neighborhood.two_tier, "the tier survives a reshard");
    for u in 0..N_USERS {
        let n = fleet.neighbors_of(u).expect("valid user");
        assert!(
            n.len() >= 5,
            "user {u}: two-tier neighborhoods must span shards (got {})",
            n.len()
        );
    }
    fleet.shutdown();
}

#[test]
fn migration_counters_track_progress_through_serving_stats() {
    let seed = 61u64;
    let (split, histories) = world(seed);
    let mut engine =
        ShardedEngine::try_new(build_sccf(&split, seed), histories, consistent(2)).expect("valid");
    engine.ingest_batch(&event_stream(seed, 50)).expect("valid");

    let plan_size = {
        let (old, new) = (
            consistent(2).ring().expect("valid"),
            consistent(6).ring().expect("valid"),
        );
        (0..N_USERS)
            .filter(|&u| old.route(u) != new.route(u))
            .count() as u64
    };
    assert!(plan_size >= 2, "world too small to observe batching");

    engine.begin_reshard(consistent(6), 1).expect("begin");
    let mid = engine.serving_stats().expect("stats");
    assert!(mid.migration.in_progress);
    assert_eq!(mid.migration.pending_users, plan_size);
    assert_eq!(mid.migration.migrated_users, 0);

    engine.reshard_step().expect("one batch of one user");
    let after_one = engine.serving_stats().expect("stats");
    assert_eq!(after_one.migration.migrated_users, 1);
    assert_eq!(after_one.migration.pending_users, plan_size - 1);
    assert_eq!(after_one.migration.batches, 1);

    while engine.is_migrating() {
        engine.reshard_step().expect("drive to completion");
    }
    let done = engine.serving_stats().expect("stats");
    assert!(!done.migration.in_progress);
    assert_eq!(done.migration.migrated_users, plan_size);
    assert_eq!(done.migration.pending_users, 0);
    assert_eq!(
        done.migration.batches, plan_size,
        "batch size 1 ⇒ one batch per user"
    );
    engine.shutdown();
}
