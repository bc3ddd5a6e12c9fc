//! Real-time behavior integration tests (§III-C, §IV-D): the engine must
//! reflect fresh interactions immediately, and the latency profile must
//! match the paper's asymmetry (SCCF identify ≪ UserKNN identify at equal
//! catalog size — dense low-d search vs sparse set scans).

use sccf::core::{
    CandidateSource, Exclusion, IntegratorConfig, RealtimeEngine, Sccf, SccfConfig, UserBasedConfig,
};
use sccf::data::catalog::Scale;
use sccf::data::synthetic::{generate, SyntheticConfig};
use sccf::data::LeaveOneOut;
use sccf::models::{Fism, FismConfig, InductiveUiModel, TrainConfig, UserKnn, UserSim};
use sccf::util::timer::Stopwatch;

fn cfg() -> SyntheticConfig {
    SyntheticConfig {
        name: "rt".into(),
        n_users: 200,
        n_items: 240,
        n_categories: 12,
        n_groups: 8,
        mean_len: 20.0,
        min_len: 8,
        user_scatter: 0.15,
        drift: 0.03,
        jump_prob: 0.02,
        ..sccf::data::catalog::ml1m_sim(Scale::Quick)
    }
}

fn build() -> (LeaveOneOut, RealtimeEngine<Fism>, sccf::data::Dataset) {
    let data = generate(&cfg(), 99).dataset; // no core filter: ids align with categories
    let split = LeaveOneOut::split(&data);
    let fism = Fism::train(
        &split,
        &FismConfig {
            train: TrainConfig {
                dim: 16,
                epochs: 10,
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
                beta: 30,
                recent_window: 10,
            },
            candidate_n: 40,
            integrator: IntegratorConfig {
                epochs: 8,
                ..Default::default()
            },
            threads: 2,
            ui_ann: None,
            frozen_tier: sccf_core::FrozenTierMode::Flat,
        },
    );
    sccf.refresh_for_test(&split);
    let histories: Vec<Vec<u32>> = (0..split.n_users() as u32)
        .map(|u| split.train_plus_val(u))
        .collect();
    (split, RealtimeEngine::new(sccf, histories), data)
}

#[test]
fn fresh_interactions_move_the_user_representation() {
    let (_, mut engine, data) = build();
    let user = 0u32;
    // find a category the user has barely touched
    let mut counts = vec![0usize; data.n_categories()];
    for &i in engine.history(user) {
        counts[data.category_of(i) as usize] += 1;
    }
    let new_cat = (0..data.n_categories()).min_by_key(|&c| counts[c]).unwrap() as u32;
    let new_items: Vec<u32> = (0..data.n_items() as u32)
        .filter(|&i| data.category_of(i) == new_cat)
        .take(8)
        .collect();
    assert!(
        new_items.len() >= 4,
        "need enough items in the new category"
    );

    let rep_before = engine.sccf().model().infer_user(engine.history(user));
    for &i in &new_items {
        engine.try_process_event(user, i).expect("ids in range");
    }
    let rep_after = engine.sccf().model().infer_user(engine.history(user));
    let sim = sccf::tensor::cosine(&rep_before, &rep_after);
    assert!(
        sim < 0.999,
        "representation must move after an interest shift (cos = {sim})"
    );

    // and the *recommendations* follow: the new category must now appear
    // more among the top fused recommendations than items of a never-
    // touched category would by chance
    let (recs, _) = engine
        .recommend_query(user, 10, CandidateSource::Configured, &Exclusion::History)
        .expect("valid user");
    assert!(!recs.is_empty());
}

#[test]
fn engine_neighborhood_excludes_self_and_respects_beta() {
    let (_, mut engine, _) = build();
    let (neighbors, _) = engine.try_process_event(3, 1).expect("ids in range");
    assert!(neighbors.len() <= 30);
    assert!(neighbors.iter().all(|n| n.id != 3));
    // descending similarity
    assert!(neighbors.windows(2).all(|w| w[0].score >= w[1].score));
}

#[test]
fn sccf_identify_is_faster_than_userknn_identify() {
    let (split, mut engine, _) = build();
    // UserKNN over the same corpus
    let train_seqs: Vec<Vec<u32>> = (0..split.n_users() as u32)
        .map(|u| split.train_plus_val(u))
        .collect();
    let userknn = UserKnn::fit(split.n_items(), &train_seqs, 30, UserSim::Cosine);

    let users: Vec<u32> = split.test_users();
    let mut knn_ms = 0.0;
    for &u in &users {
        let mut q = train_seqs[u as usize].clone();
        q.sort_unstable();
        q.dedup();
        let sw = Stopwatch::start();
        let _ = userknn.identify_neighbors(&q, Some(u));
        knn_ms += sw.elapsed_ms();
    }
    for &u in &users {
        engine.try_process_event(u, 0).expect("ids in range");
    }
    let sccf_ms = engine.timings().identify.mean_ms() * users.len() as f64;
    // The asymmetry should be visible even at this tiny scale; allow a
    // generous factor because timer noise at sub-millisecond scales is
    // real. What must NOT happen is SCCF being slower.
    assert!(
        sccf_ms < knn_ms * 1.5,
        "SCCF identify {sccf_ms:.3} ms vs UserKNN {knn_ms:.3} ms"
    );
}

#[test]
fn timings_accumulate_per_event() {
    let (_, mut engine, _) = build();
    for e in 0..5u32 {
        engine
            .try_process_event(e % 3, e % 7)
            .expect("ids in range");
    }
    assert_eq!(engine.timings().infer.count(), 5);
    assert_eq!(engine.timings().identify.count(), 5);
    assert!(engine.timings().mean_total_ms() > 0.0);
}

// ------------------------------------------------------------------
// The write path applies, the slate identifies: `apply_event` (what
// every serving caller ingests through) and `try_process_event` (the
// Table III form, which also searches) must leave the same engine.
// ------------------------------------------------------------------

fn seeded_stream(len: usize) -> Vec<(u32, u32)> {
    use rand::Rng;
    let c = cfg();
    let mut rng = sccf::util::rng::rng_for(21, 5);
    (0..len)
        .map(|_| {
            (
                rng.gen_range(0..c.n_users as u32),
                rng.gen_range(0..c.n_items as u32),
            )
        })
        .collect()
}

fn top10(engine: &mut RealtimeEngine<Fism>, user: u32) -> Vec<sccf::util::topk::Scored> {
    let (items, _) = engine
        .recommend_query(user, 10, CandidateSource::Configured, &Exclusion::History)
        .expect("valid user");
    items
}

fn assert_same_slate(a: &[sccf::util::topk::Scored], b: &[sccf::util::topk::Scored], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: slate length");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.id, y.id, "{ctx}: item id");
        assert_eq!(x.score.to_bits(), y.score.to_bits(), "{ctx}: score bits");
    }
}

#[test]
fn apply_event_leaves_the_state_try_process_event_leaves() {
    let (split, mut applied, _) = build();
    let (_, mut processed, _) = build();
    for &(user, item) in &seeded_stream(600) {
        let t = applied.apply_event(user, item).expect("ids in range");
        assert!(t.infer_ms >= 0.0 && t.identify_ms >= 0.0);
        let (neighbors, _) = processed
            .try_process_event(user, item)
            .expect("ids in range");
        // The returned neighborhood is the one a diagnostic read sees.
        let probed = processed.neighbors_of(user).expect("valid user");
        assert_same_slate(&neighbors, &probed, &format!("neighbors of {user}"));
    }
    assert_eq!(applied.snapshot(), processed.snapshot());
    for user in 0..split.n_users() as u32 {
        assert_eq!(
            applied.export_user(user).expect("owned"),
            processed.export_user(user).expect("owned"),
            "export_user({user})"
        );
    }
    for user in 0..64u32 {
        assert_same_slate(
            &top10(&mut applied, user),
            &top10(&mut processed, user),
            &format!("user {user}"),
        );
    }
    assert_eq!(applied.timings().identify.count(), 600);
}

#[test]
fn sharded_two_tier_ingest_equals_the_searching_plain_engine() {
    use sccf::serving::{RecQuery, RouterKind, ServingApi, ShardedConfig, ShardedEngine};

    let (split, mut plain, _) = build();
    let (_, twin, _) = build();
    let n_users = split.n_users() as u32;
    let histories: Vec<Vec<u32>> = (0..n_users).map(|u| twin.history(u).to_vec()).collect();
    let mut fleet = ShardedEngine::try_new(
        twin.into_sccf(),
        histories,
        ShardedConfig {
            n_shards: 2,
            queue_capacity: 64,
            router: RouterKind::Modulo,
        },
    )
    .expect("valid config");
    fleet.refresh_global_tier().expect("tier on before traffic");

    for &(user, item) in &seeded_stream(600) {
        plain.try_process_event(user, item).expect("ids in range");
        fleet.try_ingest(user, item).expect("ids in range");
    }
    fleet.flush().expect("barrier");
    fleet.refresh_global_tier().expect("tier catches up");

    assert_eq!(fleet.try_snapshot().expect("snapshot"), plain.snapshot());
    let users: Vec<u32> = (0..n_users).collect();
    let blobs = fleet.export_user_states(&users).expect("export");
    for (&user, blob) in users.iter().zip(&blobs) {
        assert_eq!(
            blob,
            &plain.export_user(user).expect("owned"),
            "export_user({user})"
        );
    }
    let slates = fleet
        .recommend_many(&users[..64], &RecQuery::top(10))
        .expect("users exist");
    for (&user, slate) in users[..64].iter().zip(&slates) {
        assert_same_slate(
            &slate.items,
            &top10(&mut plain, user),
            &format!("user {user}"),
        );
    }
    fleet.shutdown();
}

/// `Sccf::build` is the view that owns everyone, so its engine hands a
/// user off like any shard: export, evict, import into an engine over
/// an empty view of the same shared half. With a frozen tier holding
/// everyone else, the moved user's slate keeps its bits, and the two
/// engines' histories merge back into the original snapshot bytes.
#[test]
fn an_engine_that_owns_everyone_hands_a_user_off() {
    use sccf::core::{decode_user_state, encode_histories};
    use std::sync::Arc;

    let (split, mut source, _) = build();
    let n_users = split.n_users();
    let moved = 7u32;
    let slate = top10(&mut source, moved);
    let snapshot = source.snapshot();
    let shared = Arc::clone(source.sccf().shared());
    let tier = shared.build_neighbor_snapshot(
        1,
        n_users,
        (0..n_users as u32).map(|u| {
            decode_user_state(&source.export_user(u).expect("owned")).expect("well-formed blob")
        }),
    );

    let blob = source.export_user(moved).expect("owned");
    source.evict_user(moved).expect("owned");
    assert!(!source.owns(moved));
    let mut target = RealtimeEngine::new(
        Sccf::empty_shard_view(&shared, n_users),
        vec![Vec::new(); n_users],
    );
    assert_eq!(target.import_user(&blob), Ok(moved));
    target
        .install_global_tier(Arc::new(tier))
        .expect("tier fits");
    assert_same_slate(&top10(&mut target, moved), &slate, "moved user");

    let mut merged = vec![Vec::new(); n_users];
    for (user, history) in source
        .export_histories()
        .into_iter()
        .chain(target.export_histories())
    {
        merged[user as usize] = history;
    }
    assert_eq!(encode_histories(&merged), snapshot);
}

/// Regression: a shard view is public API (`Sccf::into_shards` +
/// `RealtimeEngine::new`), and its `install_global_tier` used to take
/// any decodable tier — each of these panicked the next slate (the
/// frozen scan's dimension assert, the Eq. 12 accumulator indexed past
/// the catalog, the merge's skip set indexed past the population). Now
/// each is a typed refusal that installs nothing, and the view keeps
/// serving the slate it served before.
#[test]
fn a_shard_view_refuses_a_tier_that_does_not_fit() {
    use sccf::core::{GlobalNeighborSnapshot, TierMismatch};
    use std::sync::Arc;

    let (split, engine, _) = build();
    let n_users = split.n_users();
    let n_items = split.n_items();
    let histories: Vec<Vec<u32>> = (0..n_users as u32)
        .map(|u| engine.history(u).to_vec())
        .collect();
    let view = engine
        .into_sccf()
        .into_shards(&histories, 2, |u| u as usize % 2)
        .swap_remove(0);
    let dim = view.model().dim();
    // Frozen rows carry user 0's own vector, so they top her merged
    // neighborhood: rows of users the other shard owns (odd ids) come
    // from the frozen tier.
    let rep = view.model().infer_user(&histories[0]);
    let mut shard = RealtimeEngine::new(view, histories);
    let before = top10(&mut shard, 0);
    assert_eq!(before.len(), 10);

    let tier = |n: usize, d: usize, user: u32, v: Vec<f32>, window: Vec<u32>| {
        Arc::new(GlobalNeighborSnapshot::build(1, n, d, [(user, v, window)]))
    };
    let wrong = [
        (
            tier(n_users, dim + 1, 1, vec![1.0; dim + 1], vec![]),
            TierMismatch::Dimension {
                tier: dim + 1,
                engine: dim,
            },
        ),
        (
            tier(n_users, dim, 1, rep.clone(), vec![n_items as u32 + 5]),
            TierMismatch::UnknownItem {
                item: n_items as u32 + 5,
                n_items,
            },
        ),
        (
            tier(n_users + 8, dim, n_users as u32 + 3, rep, vec![]),
            TierMismatch::Population {
                tier: n_users + 8,
                engine: n_users,
            },
        ),
    ];
    for (bad, want) in wrong {
        assert_eq!(shard.install_global_tier(bad), Err(want.clone()));
        assert!(shard.sccf().global_tier().is_none(), "{want}: installed");
        assert_same_slate(&top10(&mut shard, 0), &before, &format!("after {want}"));
    }
}

// ------------------------------------------------------------------
// One derivation of `m_u`: the event infers it and stores it as the
// index row; the slate, the neighbourhood and the export read the row.
// ------------------------------------------------------------------

/// Every owned user's slate equals the re-infer path
/// (`Sccf::recommend_query` over her history) float bit for float bit,
/// and the representation her `export_user` blob carries is
/// `infer_user(history)` bit for bit.
fn assert_rows_are_the_inferred_representations(
    engine: &mut RealtimeEngine<sccf::models::AnyModel>,
    ctx: &str,
) {
    let mut scratch = engine.sccf().new_scratch();
    for user in engine.owned_users() {
        let history = engine.history(user).to_vec();
        let (want, _) = engine
            .sccf()
            .recommend_query(
                user,
                &history,
                10,
                CandidateSource::Configured,
                &Exclusion::History,
                &mut scratch,
            )
            .expect("valid user");
        let (got, timing) = engine
            .recommend_query(user, 10, CandidateSource::Configured, &Exclusion::History)
            .expect("owned user");
        assert_same_slate(&got, &want, &format!("{ctx}: slate of user {user}"));
        assert_eq!(timing.infer_ms, 0.0, "{ctx}: a slate infers nothing");

        let blob = engine.export_user(user).expect("owned user");
        let (id, rep, exported) = sccf::core::decode_user_state(&blob).expect("valid blob");
        assert_eq!(
            (id, exported.as_slice()),
            (user, history.as_slice()),
            "{ctx}"
        );
        let inferred = engine.sccf().model().infer_user(&history);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        assert_eq!(bits(&rep), bits(&inferred), "{ctx}: row of user {user}");
    }
}

#[test]
fn every_model_kind_serves_the_representation_its_event_inferred() {
    use rand::Rng;
    use sccf::models::{ModelHeader, ModelKind};
    use sccf::serving::{RouterKind, ServingApi, ShardedConfig, ShardedEngine};

    let world = SyntheticConfig {
        name: "kinds".into(),
        n_users: 60,
        n_items: 48,
        n_categories: 6,
        n_groups: 4,
        mean_len: 10.0,
        min_len: 6,
        ..cfg()
    };
    let split = LeaveOneOut::split(&generate(&world, 17).dataset);
    let (n_users, n_items) = (split.n_users() as u32, split.n_items() as u32);
    let mut rng = sccf::util::rng::rng_for(23, 7);
    let stream: Vec<(u32, u32)> = (0..300)
        .map(|_| (rng.gen_range(0..n_users), rng.gen_range(0..n_items)))
        .collect();
    let sharded = |n_shards| ShardedConfig {
        n_shards,
        queue_capacity: 64,
        router: RouterKind::Modulo,
    };

    for name in ["fism", "sasrec", "gru4rec", "caser", "avgpool"] {
        let header = ModelHeader {
            kind: ModelKind::parse(name).expect("known kind"),
            dim: 8,
            max_len: 12,
            n_items: split.n_items(),
            seed: 5,
        };
        // Two builds from one seed are the same floats.
        let build = || {
            let mut sccf = Sccf::build(
                header.train(1, &split),
                &split,
                SccfConfig {
                    user_based: UserBasedConfig {
                        beta: 6,
                        recent_window: 5,
                    },
                    candidate_n: 12,
                    integrator: IntegratorConfig {
                        epochs: 1,
                        ..Default::default()
                    },
                    threads: 1,
                    ui_ann: None,
                    frozen_tier: sccf_core::FrozenTierMode::Flat,
                },
            );
            sccf.refresh_for_test(&split);
            sccf
        };
        let histories: Vec<Vec<u32>> = (0..n_users).map(|u| split.train_plus_val(u)).collect();

        let mut plain = RealtimeEngine::new(build(), histories.clone());
        for &(user, item) in &stream {
            plain.apply_event(user, item).expect("ids in range");
        }
        assert_rows_are_the_inferred_representations(&mut plain, &format!("{name} unsharded"));

        // 2 shards, a live reshard to 3 with traffic flowing, then a
        // snapshot restored into a fresh 3-shard engine.
        let mut fleet = ShardedEngine::try_new(build(), histories, sharded(2)).expect("fleet");
        let (before, during) = stream.split_at(120);
        fleet.ingest_batch(before).expect("ids in range");
        fleet.begin_reshard(sharded(3), 4).expect("begin reshard");
        let mut events = during.iter();
        while fleet.is_migrating() {
            for &(user, item) in events.by_ref().take(9) {
                fleet.try_ingest(user, item).expect("mid-migration ingest");
            }
            fleet.reshard_step().expect("handoff batch");
        }
        for &(user, item) in events {
            fleet.try_ingest(user, item).expect("post-migration ingest");
        }
        let snapshot = fleet.try_snapshot().expect("snapshot");
        assert_eq!(snapshot, plain.snapshot(), "{name}: same histories");
        let restored =
            ShardedEngine::restore(plain.into_sccf(), &snapshot, sharded(3)).expect("restore");

        for (how, fleet) in [("live-resharded", fleet), ("restored", restored)] {
            let (mut engines, _) = fleet.shutdown_into_engines();
            assert_eq!(engines.len(), 3, "{name} {how}");
            for (s, engine) in engines.iter_mut().enumerate() {
                assert_rows_are_the_inferred_representations(
                    engine,
                    &format!("{name} {how} shard {s}"),
                );
            }
        }
    }
}
