//! `bench-serving`: latency of one serving event as the catalog grows.

use sccf_core::{RealtimeEngine, Sccf, SccfConfig};
use sccf_data::catalog::Scale;
use sccf_serving::{RecQuery, ServingApi};
use sccf_util::table::f4;
use sccf_util::timer::{Stopwatch, TimingStats};
use sccf_util::{Json, Table};

use super::BenchArtifact;
use crate::harness::{event_at, serving_sccf_config, serving_world, HarnessConfig, WorldShape};

/// One catalog size's measurements, mean milliseconds per call.
struct Point {
    n_items: usize,
    process_event_ms: f64,
    recommend_exact_ms: f64,
    recommend_ann_ms: f64,
}

/// For each catalog size the same trained FISM backend is wrapped two
/// ways: the **exact** configuration (dense Eq. 10 scan over all items,
/// the paper's formulation) and the **ANN** configuration
/// ([`SccfConfig::ui_ann`]: HNSW over the item embeddings). Both use the
/// sparse Eq. 12 scorer and the engine's reusable [`sccf_core::QueryScratch`],
/// so neither allocates catalog-sized memory per event; the comparison
/// isolates the remaining O(catalog) *compute* of exact UI retrieval.
/// `process_event` (one `try_ingest`: infer + index row, no neighbor
/// search) is catalog-free in both.
///
/// `--scale full` is the ≥100k-item pair behind the committed artifact;
/// `quick` is the CI-sized pair.
pub fn bench_serving(h: &HarnessConfig) -> BenchArtifact {
    let catalog_sizes: &[usize] = match h.scale {
        Scale::Quick => &[10_000, 50_000],
        Scale::Full => &[10_000, 100_000],
    };
    let mut points: Vec<Point> = Vec::new();
    for &n_items in catalog_sizes {
        eprintln!("[bench-serving] catalog {n_items} ...");
        let shape = WorldShape {
            n_users: 1200,
            n_items,
            n_categories: (n_items / 250).max(8),
            mean_len: 20.0,
            min_len: 8,
            dim: 16,
            epochs: 2,
        };
        let world = serving_world(&shape, h.seed);
        let (split, histories) = (&world.split, world.histories);
        let base_cfg = serving_sccf_config(h.threads, h.seed);

        // --- exact (dense Eq. 10) leg ---
        let mut sccf = Sccf::build(world.fism, split, base_cfg.clone());
        sccf.refresh_for_test(split);
        let mut engine = RealtimeEngine::new(sccf, histories.clone());
        let (process_event_ms, recommend_exact_ms) =
            time_engine(&mut engine, split.n_users(), n_items);
        let fism = engine.into_sccf().into_model();

        // --- ANN (HNSW over item embeddings) leg ---
        let ann_cfg = SccfConfig {
            ui_ann: Some(sccf_index::HnswConfig {
                m: 8,
                ef_construction: 60,
                ef_search: 48,
                seed: h.seed,
            }),
            ..base_cfg
        };
        let mut sccf = Sccf::build(fism, split, ann_cfg);
        sccf.refresh_for_test(split);
        let mut engine = RealtimeEngine::new(sccf, histories);
        let (_, recommend_ann_ms) = time_engine(&mut engine, split.n_users(), n_items);

        points.push(Point {
            n_items,
            process_event_ms,
            recommend_exact_ms,
            recommend_ann_ms,
        });
    }

    let mut t = Table::new(
        "Serving latency vs catalog size (ms/event; sparse UU + scratch in both legs)",
        &[
            "#items",
            "process_event",
            "recommend (exact UI)",
            "recommend (ANN UI)",
        ],
    );
    for p in &points {
        t.push(&[
            p.n_items.to_string(),
            f4(p.process_event_ms),
            f4(p.recommend_exact_ms),
            f4(p.recommend_ann_ms),
        ]);
    }

    let rows = points.iter().map(|p| {
        Json::obj([
            ("n_items", Json::int(p.n_items)),
            ("process_event_ms", Json::num(p.process_event_ms, 6)),
            ("recommend_exact_ms", Json::num(p.recommend_exact_ms, 6)),
            ("recommend_ann_ms", Json::num(p.recommend_ann_ms, 6)),
        ])
    });
    // Smallest → largest catalog, as a ratio of one measured field.
    let growth = |field: fn(&Point) -> f64, decimals| {
        let (a, b) = (field(&points[0]), field(&points[points.len() - 1]));
        Json::num(if a > 0.0 { b / a } else { f64::NAN }, decimals)
    };
    let fields = vec![
        ("points", Json::Arr(rows.collect())),
        ("catalog_growth", growth(|p| p.n_items as f64, 1)),
        ("process_event_growth", growth(|p| p.process_event_ms, 3)),
        ("recommend_ann_growth", growth(|p| p.recommend_ann_ms, 3)),
        (
            "recommend_exact_growth",
            growth(|p| p.recommend_exact_ms, 3),
        ),
    ];
    BenchArtifact::new("BENCH_serving.json", fields, vec![t])
}

/// Drive `events` through the engine via the unified `ServingApi`,
/// timing ingest and recommend separately; returns mean milliseconds
/// per call.
fn time_engine<E: ServingApi>(engine: &mut E, n_users: usize, n_items: usize) -> (f64, f64) {
    let events = 400usize.min(4 * n_users);
    let query = RecQuery::top(10);
    // warmup (fills scratch capacity, faults pages)
    for k in 0..50u32 {
        let u = k % n_users as u32;
        engine
            .try_ingest(u, (k * 7919) % n_items as u32)
            .expect("warmup ids in range");
        let _ = engine.try_recommend(u, &query).expect("warmup user");
    }
    let mut event_stats = TimingStats::new();
    let mut rec_stats = TimingStats::new();
    for k in 0..events {
        let (u, item) = event_at(k, n_users, n_items);
        let sw = Stopwatch::start();
        engine.try_ingest(u, item).expect("ids in range");
        event_stats.record_ms(sw.elapsed_ms());
        let sw = Stopwatch::start();
        let _ = engine.try_recommend(u, &query).expect("valid user");
        rec_stats.record_ms(sw.elapsed_ms());
    }
    (event_stats.mean_ms(), rec_stats.mean_ms())
}
