//! `bench-quality`: what in-shard neighborhoods cost in HR/NDCG and what
//! the two-tier global snapshot recovers, plus the ≥100k-user
//! frozen-tier search comparison that rides in the same artifact.

use sccf_core::{FrozenTierMode, Sccf};
use sccf_data::catalog::Scale;
use sccf_models::Fism;
use sccf_serving::{RecQuery, RouterKind, ServingApi, ShardedConfig, ShardedEngine};
use sccf_util::table::{f2, f4};
use sccf_util::timer::Stopwatch;
use sccf_util::{Json, Table};

use super::BenchArtifact;
use crate::harness::{event_at, serving_sccf_config, serving_world, HarnessConfig, WorldShape};

/// One frozen-tier mode's measured operating point at bench scale.
struct TierPoint {
    /// `"flat"` or `"hnsw"`.
    mode: &'static str,
    /// Fraction of the exact flat top-β recovered, averaged over probes.
    recall_at_beta: f64,
    /// Mean wall time of one `search_append` call.
    ns_per_search: f64,
    /// Flat-scan time over this mode's time (flat = 1.0).
    speedup_vs_flat: f64,
    /// Resident bytes of the search structure (0 for flat — the scan
    /// reads the frozen slab it shares with the reranker).
    bytes: usize,
}

/// One engine configuration's leave-one-out quality at each cutoff of
/// `KS`.
struct QualityPoint {
    /// `"n1"`, `"n8_shard_local"` or `"n8_two_tier"`.
    config: &'static str,
    hr: [f64; 2],
    ndcg: [f64; 2],
}

/// Clustered synthetic tastes (64 centres + noise): realistic ANN
/// difficulty, and every row non-zero so the whole population is
/// covered by the tier.
fn tier_world(n: usize, dim: usize, seed: u64) -> sccf_index::FlatIndex {
    use rand::Rng;
    let mut rng = sccf_util::rng::rng_for(seed, 9001);
    const CENTERS: usize = 64;
    let centers: Vec<f32> = (0..CENTERS * dim)
        .map(|_| rng.gen_range(-1.0f32..1.0))
        .collect();
    let rows: Vec<(u32, Vec<f32>)> = (0..n as u32)
        .map(|u| {
            let c = (u as usize * 31) % CENTERS;
            let v = (0..dim)
                .map(|j| centers[c * dim + j] + rng.gen_range(-0.3f32..0.3))
                .collect();
            (u, v)
        })
        .collect();
    sccf_index::FlatIndex::from_rows(n, dim, rows)
}

/// Sublinear-tier scaling measurement: at ≥100k synthetic users, time
/// `search_append` per [`FrozenTierMode`] and score the ANN top-β
/// against the exact flat scan, then pin the exhaustive beam to
/// bit-identity at small n (where `HNSW_OVERFETCH × β` covers the whole
/// population, so candidate generation cannot lose the true top-β).
/// Returns the artifact's `frozen_tier` section, its table and the
/// checks the section failed.
fn frozen_tier(h: &HarnessConfig) -> (Json, Table, Vec<String>) {
    use rand::Rng;
    use sccf_index::{FrozenTierAccel, TierScratch};
    use sccf_util::topk::Scored;
    let n = match h.scale {
        Scale::Quick => 100_000usize,
        Scale::Full => 250_000,
    };
    let dim = 16usize;
    let beta = 100usize;
    eprintln!("[bench-quality] frozen tier: {n} users × dim {dim} ...");
    let frozen = tier_world(n, dim, h.seed);

    // Probe queries: perturbed stored rows — queries live near the
    // data manifold, matching the serving shape.
    let mut rng = sccf_util::rng::rng_for(h.seed, 9002);
    let queries: Vec<Vec<f32>> = (0..100)
        .map(|_| {
            let u = rng.gen_range(0..n as u32);
            frozen
                .vector(u)
                .iter()
                .map(|x| x + rng.gen_range(-0.05f32..0.05))
                .collect()
        })
        .collect();
    let no_skip = |_: u32| false;

    // Exact ground truth, then the timed flat baseline.
    let truth: Vec<Vec<Scored>> = queries
        .iter()
        .map(|q| frozen.search(q, beta, None))
        .collect();
    let flat_ns = {
        let mut out = Vec::with_capacity(beta);
        let sw = Stopwatch::start();
        for q in &queries {
            out.clear();
            frozen.search_append(q, beta, &no_skip, &mut out);
            std::hint::black_box(&out);
        }
        sw.elapsed_ms() * 1e6 / queries.len() as f64
    };
    let mut points = vec![TierPoint {
        mode: "flat",
        recall_at_beta: 1.0,
        ns_per_search: flat_ns,
        speedup_vs_flat: 1.0,
        bytes: 0,
    }];

    let mode = FrozenTierMode::Hnsw { ef: 128 };
    eprintln!("[bench-quality] frozen tier: building {} ...", mode.label());
    let accel = FrozenTierAccel::build(mode, &frozen, h.seed).expect("non-flat mode");
    let mut scratch = TierScratch::new();
    let mut out = Vec::with_capacity(beta);
    // Warm-up sizes every scratch buffer; the timed pass then
    // allocates nothing (the capacity-fixed-point property pinned
    // in sccf-index's tier tests).
    for q in &queries {
        out.clear();
        accel.search_append(&frozen, q, beta, &no_skip, &mut scratch, &mut out);
    }
    let sw = Stopwatch::start();
    for q in &queries {
        out.clear();
        accel.search_append(&frozen, q, beta, &no_skip, &mut scratch, &mut out);
        std::hint::black_box(&out);
    }
    let ns = sw.elapsed_ms() * 1e6 / queries.len() as f64;
    let mut recall = 0.0f64;
    for (q, t) in queries.iter().zip(&truth) {
        out.clear();
        accel.search_append(&frozen, q, beta, &no_skip, &mut scratch, &mut out);
        let mut got = sccf_util::hash::fx_set_with_capacity(out.len());
        got.extend(out.iter().map(|s| s.id));
        let hit = t.iter().filter(|s| got.contains(&s.id)).count();
        recall += hit as f64 / t.len().max(1) as f64;
    }
    recall /= queries.len() as f64;
    points.push(TierPoint {
        mode: mode.label(),
        recall_at_beta: recall,
        ns_per_search: ns,
        speedup_vs_flat: flat_ns / ns,
        bytes: accel.bytes(),
    });

    // Exhaustive-beam exactness pin at small n: `Hnsw { ef ≥ n }` +
    // exact rerank must reproduce the flat scan bit-for-bit on every
    // probe.
    let small = tier_world(96, dim, h.seed ^ 0xA5);
    let beta_small = 96 / sccf_index::tier::HNSW_OVERFETCH;
    let hnsw_exact = {
        let accel = FrozenTierAccel::build(FrozenTierMode::Hnsw { ef: 96 }, &small, 7)
            .expect("non-flat mode");
        let mut scratch = TierScratch::new();
        let mut rng = sccf_util::rng::rng_for(h.seed, 9003);
        let mut got = Vec::new();
        (0..32).all(|_| {
            let q: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            let exact = small.search(&q, beta_small, None);
            got.clear();
            accel.search_append(&small, &q, beta_small, &no_skip, &mut scratch, &mut got);
            exact.len() == got.len()
                && exact
                    .iter()
                    .zip(&got)
                    .all(|(a, b)| a.id == b.id && a.score.to_bits() == b.score.to_bits())
        })
    };

    let mut table = Table::new(
        format!(
            "Frozen global tier — {n} users × dim {dim}, β={beta}, candidates exactly reranked \
             (exhaustive pin: hnsw bit-identical {hnsw_exact})",
        ),
        &["mode", "recall@β", "ns/search", "speedup", "MiB"],
    );
    for p in &points {
        table.push(&[
            p.mode.to_string(),
            f4(p.recall_at_beta),
            format!("{:.0}", p.ns_per_search),
            f2(p.speedup_vs_flat),
            f2(p.bytes as f64 / (1024.0 * 1024.0)),
        ]);
    }

    let rows = points.iter().map(|p| {
        Json::obj([
            ("mode", Json::Str(p.mode.to_string())),
            ("recall_at_beta", Json::num(p.recall_at_beta, 6)),
            ("ns_per_search", Json::num(p.ns_per_search, 1)),
            ("speedup_vs_flat", Json::num(p.speedup_vs_flat, 3)),
            ("bytes", Json::int(p.bytes)),
        ])
    });
    let hnsw = points.last().expect("hnsw measured");
    let json = Json::obj([
        ("n_users", Json::int(n)),
        ("dim", Json::int(dim)),
        ("beta", Json::int(beta)),
        ("points", Json::Arr(rows.collect())),
        ("hnsw_speedup_vs_flat", Json::num(hnsw.speedup_vs_flat, 3)),
        ("hnsw_recall_at_beta", Json::num(hnsw.recall_at_beta, 6)),
        ("exhaustive_hnsw_bit_identical", Json::Bool(hnsw_exact)),
    ]);
    let checks = [
        (n >= 100_000, "the tier comparison must run at scale"),
        (points.len() == 2, "flat and hnsw both measured"),
        (
            hnsw_exact,
            "exhaustive-beam HNSW + exact rerank must reproduce the flat scan bit-for-bit",
        ),
        (
            hnsw.recall_at_beta >= 0.95,
            "serving-parameter HNSW must keep recall@beta >= 0.95",
        ),
        (
            hnsw.speedup_vs_flat >= 5.0,
            "the ANN tier must beat the flat scan by >= 5x at >= 100k users",
        ),
    ];
    let failed = checks.iter().filter(|c| !c.0).map(|c| c.1.to_string());
    (json, table, failed.collect())
}

/// The ROADMAP's "measure the in-shard approximation's quality cost
/// first", answered: one trained model, one leave-one-out protocol,
/// three serving shapes —
///
/// * **N=1** — the paper's full-population Eq. 11 neighborhoods (the
///   quality ceiling for this model);
/// * **N=8 shard-local** — each user's neighbors drawn only from her
///   shard's ~1/8 of the population (the PR 2 trade);
/// * **N=8 two-tier** — shard-local fresh deltas merged with one
///   freshly refreshed global snapshot (zero staleness here, so the
///   remaining gap to N=1 is merge noise, not coverage).
///
/// Every configuration serves the *same* per-user state derived from
/// the same histories; only the neighbor pool differs. The run also
/// drives one incremental refresh under an event stream and records
/// the worst single-ingest stall — the bench's own check that a
/// background refresh never blocks ingestion for more than one export
/// batch.
pub fn bench_quality(h: &HarnessConfig) -> BenchArtifact {
    let (n_users, n_items) = match h.scale {
        Scale::Quick => (1400usize, 420usize),
        Scale::Full => (4000, 900),
    };
    const N_SHARDS: usize = 8;
    const KS: [usize; 2] = [10, 20];

    let shape = WorldShape {
        n_users,
        n_items,
        n_categories: 16,
        mean_len: 18.0,
        min_len: 6,
        dim: 16,
        epochs: 3,
    };
    let world = serving_world(&shape, h.seed);
    let (split, histories) = (&world.split, &world.histories);
    let (n_users, n_items) = (split.n_users(), split.n_items());
    let targets: Vec<(u32, u32)> = split
        .test_users()
        .into_iter()
        .filter_map(|u| split.test_item(u).map(|i| (u, i)))
        .collect();
    let mut fism = Some(world.fism);

    // Leave-one-out over the engine: rank of the held-out test item in
    // the served slate (absent ⇒ miss at every cutoff). Returns
    // (HR@k, NDCG@k) per entry of `KS`.
    let eval_engine = |engine: &mut ShardedEngine<Fism>| -> ([f64; 2], [f64; 2]) {
        let mut hr = [0.0f64; 2];
        let mut ndcg = [0.0f64; 2];
        for chunk in targets.chunks(256) {
            let users: Vec<u32> = chunk.iter().map(|&(u, _)| u).collect();
            let responses = engine
                .recommend_many(&users, &RecQuery::top(KS[1]))
                .expect("test users are valid");
            for (res, &(_, target)) in responses.iter().zip(chunk) {
                let rank = res
                    .items
                    .iter()
                    .position(|s| s.id == target)
                    .map_or(usize::MAX, |p| p + 1);
                for (j, &k) in KS.iter().enumerate() {
                    hr[j] += sccf_eval::metrics::hr_at_k(rank, k);
                    ndcg[j] += sccf_eval::metrics::ndcg_at_k(rank, k);
                }
            }
        }
        let n = targets.len() as f64;
        (hr.map(|x| x / n), ndcg.map(|x| x / n))
    };

    let mut points: Vec<QualityPoint> = Vec::new();
    // Longest single `try_ingest` while a background incremental refresh
    // was collecting, longest single `refresh_step` (one export batch
    // round trip), wall time of the initial blocking refresh.
    let mut max_ingest_stall_ms = 0.0f64;
    let mut max_refresh_step_ms = 0.0f64;
    let mut refresh_ms = 0.0f64;
    for (config, n_shards, two_tier) in [
        ("n1", 1usize, false),
        ("n8_shard_local", N_SHARDS, false),
        ("n8_two_tier", N_SHARDS, true),
    ] {
        eprintln!("[bench-quality] {config} ...");
        let model = fism.take().expect("model threaded through rounds");
        let sccf = Sccf::build(model, split, serving_sccf_config(h.threads, h.seed));
        let mut engine = ShardedEngine::try_new(
            sccf,
            histories.clone(),
            ShardedConfig {
                n_shards,
                queue_capacity: 1024,
                router: RouterKind::Modulo,
            },
        )
        .expect("valid shard config");
        if two_tier {
            let report = engine.refresh_global_tier().expect("tier refresh");
            refresh_ms = report.duration_ms;
            let stats = engine.serving_stats().expect("stats");
            assert!(stats.neighborhood.two_tier);
            assert_eq!(stats.neighborhood.users_covered, n_users as u64);
        }
        let (hr, ndcg) = eval_engine(&mut engine);
        points.push(QualityPoint { config, hr, ndcg });

        if two_tier {
            // Background-refresh stall measurement: ingest bursts
            // interleave with collection batches; the router never
            // blocks for more than one export batch. Clearing the tier
            // first makes the refresh export the whole population (the
            // longest collection), not just the few users dirtied since.
            engine.clear_global_tier().expect("no epoch in flight");
            engine.begin_refresh(128).expect("begin refresh");
            let mut k = 0usize;
            loop {
                for _ in 0..50 {
                    let (u, i) = event_at(k, n_users, n_items);
                    let sw = Stopwatch::start();
                    engine.try_ingest(u, i).expect("stream ids in range");
                    max_ingest_stall_ms = max_ingest_stall_ms.max(sw.elapsed_ms());
                    k += 1;
                }
                let sw = Stopwatch::start();
                let remaining = engine.refresh_step().expect("collection batch");
                max_refresh_step_ms = max_refresh_step_ms.max(sw.elapsed_ms());
                if remaining == 0 {
                    break;
                }
            }
            engine.flush().expect("barrier");
        }

        let (mut engines, _) = engine.shutdown_into_engines();
        let last = engines.pop().expect("at least one shard");
        drop(engines);
        fism = Some(last.into_sccf().into_model());
    }

    let mut t = Table::new(
        format!(
            "Cross-shard neighborhood quality ({} test users, {n_items} items, β=100, \
             {N_SHARDS}-shard fleets; two-tier = shard-local delta ∪ refreshed global snapshot)",
            targets.len(),
        ),
        &["config", "HR@10", "NDCG@10", "HR@20", "NDCG@20"],
    );
    for p in &points {
        t.push(&[
            p.config.to_string(),
            f4(p.hr[0]),
            f4(p.ndcg[0]),
            f4(p.hr[1]),
            f4(p.ndcg[1]),
        ]);
    }

    let (tier_json, tier_table, tier_failures) = frozen_tier(h);

    let six = |xs: [f64; 2]| Json::Arr(xs.iter().map(|&x| Json::num(x, 6)).collect());
    let rows = points.iter().map(|p| {
        Json::obj([
            ("config", Json::Str(p.config.to_string())),
            ("hr", six(p.hr)),
            ("ndcg", six(p.ndcg)),
        ])
    });
    // The headline rows are each configuration at k = 20 (`KS[1]`).
    let at = |name: &str| points.iter().find(|p| p.config == name).expect("measured");
    let (n1, local, two_tier) = (at("n1"), at("n8_shard_local"), at("n8_two_tier"));
    let fields = vec![
        ("n_users", Json::int(n_users)),
        ("n_items", Json::int(n_items)),
        ("n_test_users", Json::int(targets.len())),
        ("n_shards", Json::int(N_SHARDS)),
        ("beta", Json::int(100)),
        ("ks", Json::Arr(KS.iter().map(|&k| Json::int(k)).collect())),
        ("points", Json::Arr(rows.collect())),
        ("hr20_n1", Json::num(n1.hr[1], 6)),
        ("hr20_shard_local", Json::num(local.hr[1], 6)),
        ("hr20_two_tier", Json::num(two_tier.hr[1], 6)),
        ("ndcg20_n1", Json::num(n1.ndcg[1], 6)),
        ("ndcg20_shard_local", Json::num(local.ndcg[1], 6)),
        ("ndcg20_two_tier", Json::num(two_tier.ndcg[1], 6)),
        (
            "two_tier_minus_shard_local_hr20",
            Json::num(two_tier.hr[1] - local.hr[1], 6),
        ),
        (
            "two_tier_over_n1_hr20",
            Json::num(two_tier.hr[1] / n1.hr[1], 6),
        ),
        ("refresh_ms", Json::num(refresh_ms, 3)),
        ("max_ingest_stall_ms", Json::num(max_ingest_stall_ms, 3)),
        ("max_refresh_step_ms", Json::num(max_refresh_step_ms, 3)),
        ("frozen_tier", tier_json),
    ];
    let tables = vec![t, tier_table];
    let mut a = BenchArtifact::new("BENCH_quality.json", fields, tables);
    a.require_keys(
        "",
        "hr20_n1 hr20_shard_local hr20_two_tier ndcg20_n1 ndcg20_shard_local ndcg20_two_tier \
         two_tier_minus_shard_local_hr20 two_tier_over_n1_hr20 refresh_ms max_ingest_stall_ms \
         max_refresh_step_ms",
    );
    a.check(points.len() == 3, "three configurations measured");
    a.check(
        two_tier.hr[1] >= local.hr[1],
        "the global tier must not lose recall vs shard-local neighborhoods",
    );
    a.check(
        max_ingest_stall_ms <= max_refresh_step_ms.max(25.0),
        format!(
            "a background refresh must not stall ingestion beyond one export batch \
             (stall {max_ingest_stall_ms:.2} ms, max batch {max_refresh_step_ms:.2} ms)"
        ),
    );
    a.require_keys(
        "frozen_tier",
        "n_users dim beta points hnsw_speedup_vs_flat hnsw_recall_at_beta \
         exhaustive_hnsw_bit_identical",
    );
    a.failures.extend(tier_failures);
    a
}
