//! The zero-allocation hot-path invariant, counted (ROADMAP item 1).
//!
//! The engine half: after warm-up, `apply_event` and `recommend_query`
//! allocate a *fixed* number of times per call — the same number at two
//! population sizes and two catalog sizes, on the plain engine and on a
//! shard view with a frozen tier installed. Nothing on either path may
//! allocate in proportion to the catalog or the population; what is
//! left is request-sized (one representation, the result lists, the
//! integrator's forward pass).
//!
//! The router half: on the calling thread, a `FleetRouter` recommend and
//! a fixed-shape ingest batch against a 2-member loopback fleet of real
//! `sccf serve-shard` processes allocate a fixed number of times per
//! call, whichever user or events they carry.
//!
//! A `#[global_allocator]` counts per thread, so the other tests of
//! this binary, the harness and the shard processes do not disturb a
//! measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::Path;
use std::sync::Arc;

use sccf::core::{CandidateSource, Exclusion, RealtimeEngine, Sccf};
use sccf::models::{Fism, InductiveUiModel};
use sccf::net::{FleetRouter, Supervisor, WorldSpec};
use sccf::serving::{RecQuery, ServingApi};
use sccf_bench::harness::{event_at, sccf_config, serving_world, WorldShape};

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
    static REALLOCS: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the counters
// are const-initialised thread-locals without destructors, so touching
// them never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REALLOCS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `(allocs, reallocs)` this thread performed inside `f`.
fn counted(f: impl FnOnce()) -> (usize, usize) {
    let before = (ALLOCS.with(Cell::get), REALLOCS.with(Cell::get));
    f();
    (
        ALLOCS.with(Cell::get) - before.0,
        REALLOCS.with(Cell::get) - before.1,
    )
}

/// Users touched per measurement and events per touched user.
const USERS: usize = 16;
const ROUNDS: usize = 4;
const K: usize = USERS * ROUNDS;

/// Heap allocations per steady-state call. `apply_event`: the
/// `infer_user` vector. `recommend_query` adds the local top-β search,
/// the UI and UU top-n lists, the integrator's forward pass (an
/// autograd tape — most of the count) and the returned slate; a shard
/// view adds the frozen tier's top-β heap.
const APPLY_ALLOCS: usize = 1;
const RECOMMEND_ALLOCS_PLAIN: usize = 23;
const RECOMMEND_ALLOCS_SHARD_VIEW: usize = 24;

fn plain_and_shard_view(n_users: usize, n_items: usize) -> [RealtimeEngine<Fism>; 2] {
    let shape = WorldShape {
        n_users,
        n_items,
        n_categories: 8,
        mean_len: 14.0,
        min_len: 6,
        dim: 16,
        epochs: 1,
    };
    let world = serving_world(&shape, 5);
    let (split, histories) = (&world.split, world.histories);
    let fism_cfg = world.fism_cfg;
    let weights = world.fism.save_bytes();
    let mut cfg = sccf_config(20, 20, 5, 1);
    cfg.integrator.epochs = 1;
    let build = |fism| Sccf::build(fism, split, cfg.clone());

    let mut sccf = build(world.fism);
    sccf.refresh_for_test(split);
    let plain = RealtimeEngine::new(sccf, histories.clone());

    // Shard 0 of 2, with a frozen tier over the whole population — the
    // shape a `serve-shard` worker serves from.
    let twin = Fism::load_bytes(split.n_items(), &fism_cfg, &weights).expect("same architecture");
    let view = build(twin)
        .into_shards(&histories, 2, |u| u as usize % 2)
        .swap_remove(0);
    let entries = histories.iter().enumerate().map(|(u, h)| {
        let rep = view.model().infer_user(h);
        (u as u32, rep, h.clone())
    });
    let tier = view
        .shared()
        .build_neighbor_snapshot(1, histories.len(), entries);
    let mut shard = RealtimeEngine::new(view, histories);
    shard
        .install_global_tier(Arc::new(tier))
        .expect("the tier fits the view");
    [plain, shard]
}

/// The `USERS` even (shard-0-owned) users event `k` cycles through.
fn user_at(k: usize) -> u32 {
    2 * (k % USERS) as u32
}

fn measure(engine: &mut RealtimeEngine<Fism>, n_items: usize, recommend_allocs: usize, ctx: &str) {
    let n_users = engine.sccf().user_count();
    let apply = |engine: &mut RealtimeEngine<Fism>, from: usize| {
        for k in from..from + K {
            let (_, item) = event_at(k, n_users, n_items);
            engine.apply_event(user_at(k), item).expect("owned user");
        }
    };
    let recommend = |engine: &mut RealtimeEngine<Fism>| {
        for k in 0..K {
            let (slate, _) = engine
                .recommend_query(
                    user_at(k),
                    10,
                    CandidateSource::Configured,
                    &Exclusion::History,
                )
                .expect("owned user");
            assert_eq!(slate.len(), 10, "{ctx}: a full slate");
        }
    };
    // Warm-up: dirty sets hold the touched users, the scratch has seen
    // these users' candidate sets.
    apply(engine, 0);
    recommend(engine);

    let (allocs, reallocs) = counted(|| apply(engine, K));
    assert_eq!(allocs, K * APPLY_ALLOCS, "{ctx}: apply_event allocs");
    // The one growing structure on the write path is the user's own
    // history: amortised doubling, at most once per touched user over
    // this few appends.
    assert!(reallocs <= USERS, "{ctx}: apply_event reallocs {reallocs}");

    recommend(engine); // the histories moved: let the scratch settle again
    let (allocs, reallocs) = counted(|| recommend(engine));
    assert_eq!(
        allocs,
        K * recommend_allocs,
        "{ctx}: recommend_query allocs"
    );
    assert_eq!(reallocs, 0, "{ctx}: recommend_query reallocs");
}

#[test]
fn hot_path_allocations_are_fixed_per_call_at_any_population_and_catalog() {
    for (n_users, n_items) in [(120, 100), (480, 100), (120, 400)] {
        let [mut plain, mut shard] = plain_and_shard_view(n_users, n_items);
        measure(
            &mut plain,
            n_items,
            RECOMMEND_ALLOCS_PLAIN,
            &format!("plain {n_users}x{n_items}"),
        );
        measure(
            &mut shard,
            n_items,
            RECOMMEND_ALLOCS_SHARD_VIEW,
            &format!("shard view {n_users}x{n_items}"),
        );
    }
}

/// `(allocs, reallocs)` on the calling thread per steady-state router
/// call. `try_recommend` (k = 10): the request's frame (payload encoded
/// in place) and the decoded slate. `ingest_batch` of 64 events split
/// 32 / 32 over the two members: the grouping (the group list, and per
/// member its events and their positions, grown to 32), one frame per
/// member and the list holding them, and the fan-out's bookkeeping.
const ROUTER_RECOMMEND: (usize, usize) = (2, 0);
const ROUTER_INGEST_64: (usize, usize) = (9, 19);

#[test]
fn router_allocations_are_fixed_per_call_for_any_user_and_batch_content() {
    let spec = WorldSpec {
        n_users: 48,
        n_items: 32,
        seed: 2026,
        epochs: 2,
        ..WorldSpec::default()
    };
    let dir = std::env::temp_dir().join(format!("sccf_alloc_router_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let model = dir.join("model.fism");
    std::fs::write(&model, spec.train_model()).expect("write model");
    let exe = Path::new(env!("CARGO_BIN_EXE_sccf"));
    let sup =
        Supervisor::launch_uniform(exe, 2, 1, 0, &spec, &model, None).expect("fleet launches");
    let mut router = FleetRouter::connect(sup.topology().expect("tiling")).expect("handshake");

    let owned: [Vec<u32>; 2] = [0, 1].map(|m| {
        (0..spec.n_users as u32)
            .filter(|&u| router.owner_of(u) == m)
            .collect()
    });
    let users = [owned[0][0], owned[1][1]];
    // 64 events alternating between the members; `shift` changes every
    // user and item but not the split.
    let batch = |shift: usize| -> Vec<(u32, u32)> {
        (0..64)
            .map(|i| {
                let mine = &owned[i % 2];
                let item = (i * 5 + shift * 11) % spec.n_items;
                (mine[(i / 2 + shift) % mine.len()], item as u32)
            })
            .collect()
    };
    let batches = [batch(0), batch(3)];
    let query = RecQuery::top(10);

    let recommend = |router: &mut FleetRouter, user: u32| {
        counted(|| {
            let slate = router.try_recommend(user, &query).expect("fleet recommend");
            assert_eq!(slate.items.len(), 10, "a full slate");
        })
    };
    // Warm-up: every connection's receive buffer has seen both replies.
    for _ in 0..3 {
        for &user in &users {
            recommend(&mut router, user);
        }
        for events in &batches {
            router.ingest_batch(events).expect("fleet ingest");
        }
    }
    for &user in &users {
        assert_eq!(
            recommend(&mut router, user),
            ROUTER_RECOMMEND,
            "try_recommend user {user}"
        );
    }
    for (b, events) in batches.iter().enumerate() {
        let counts = counted(|| {
            assert_eq!(router.ingest_batch(events).expect("fleet ingest"), 64);
        });
        assert_eq!(counts, ROUTER_INGEST_64, "ingest_batch content {b}");
    }

    router.shutdown_all().expect("graceful shutdown");
    sup.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
