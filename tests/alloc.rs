//! The zero-allocation hot-path invariant, counted (ROADMAP item 1, the
//! engine half): after warm-up, `apply_event` and `recommend_query`
//! allocate a *fixed* number of times per call — the same number at two
//! population sizes and two catalog sizes, on the plain engine and on a
//! shard view with a frozen tier installed. Nothing on either path may
//! allocate in proportion to the catalog or the population; what is
//! left is request-sized (one representation, the result lists, the
//! integrator's forward pass).
//!
//! A `#[global_allocator]` counts per thread, so the other tests of
//! this binary and the harness itself do not disturb a measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use sccf::core::{CandidateSource, Exclusion, RealtimeEngine, Sccf};
use sccf::models::{Fism, InductiveUiModel};
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
const RECOMMEND_ALLOCS_PLAIN: usize = 24;
const RECOMMEND_ALLOCS_SHARD_VIEW: usize = 25;

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
    shard.install_global_tier(Arc::new(tier));
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
