//! Cross-crate property-based tests (proptest): the invariants that keep
//! the whole reproduction trustworthy.

use proptest::prelude::*;
use sccf::data::dataset::{Dataset, Interaction};
use sccf::data::LeaveOneOut;
use sccf::index::{FlatIndex, Metric};
use sccf::util::stats::zscore_normalize;
use sccf::util::topk::{rank_of, topk_of_scores};

// ----------------------------------------------------------- top-k / ranks

proptest! {
    /// TopK must agree with full sort.
    #[test]
    fn topk_equals_sort(scores in prop::collection::vec(-1e3f32..1e3, 1..200), k in 1usize..50) {
        let got: Vec<u32> = topk_of_scores(&scores, k).into_iter().map(|s| s.id).collect();
        let mut idx: Vec<u32> = (0..scores.len() as u32).collect();
        idx.sort_by(|&a, &b| {
            scores[b as usize]
                .total_cmp(&scores[a as usize])
                .then(a.cmp(&b))
        });
        idx.truncate(k);
        prop_assert_eq!(got, idx);
    }

    /// rank_of must equal the position in the same full sort.
    #[test]
    fn rank_of_matches_sort(scores in prop::collection::vec(-1e3f32..1e3, 1..120), target_seed in 0usize..1000) {
        let target = (target_seed % scores.len()) as u32;
        let mut idx: Vec<u32> = (0..scores.len() as u32).collect();
        idx.sort_by(|&a, &b| {
            scores[b as usize]
                .total_cmp(&scores[a as usize])
                .then(a.cmp(&b))
        });
        let expect = idx.iter().position(|&i| i == target).unwrap() + 1;
        prop_assert_eq!(rank_of(&scores, target), expect);
    }
}

// ----------------------------------------------------------- statistics

proptest! {
    /// z-normalization always yields (≈0 mean, ≈unit variance) unless the
    /// input was constant.
    #[test]
    fn zscore_invariants(values in prop::collection::vec(-1e3f32..1e3, 2..100)) {
        let mut v = values.clone();
        zscore_normalize(&mut v);
        let mean: f32 = v.iter().sum::<f32>() / v.len() as f32;
        prop_assert!(mean.abs() < 1e-2, "mean {mean}");
        let var: f32 = v.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / v.len() as f32;
        let orig_var: f32 = {
            let m: f32 = values.iter().sum::<f32>() / values.len() as f32;
            values.iter().map(|x| (x - m) * (x - m)).sum::<f32>() / values.len() as f32
        };
        if orig_var > 1e-6 {
            prop_assert!((var - 1.0).abs() < 0.05, "var {var}");
        }
    }
}

// ----------------------------------------------------------- index exactness

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// FlatIndex top-1 must equal the brute-force argmax.
    #[test]
    fn flat_index_is_exact(
        vectors in prop::collection::vec(prop::collection::vec(-10.0f32..10.0, 4), 1..60),
        query in prop::collection::vec(-10.0f32..10.0, 4),
    ) {
        let mut idx = FlatIndex::new(4);
        for v in &vectors {
            idx.add(v);
        }
        let hits = idx.search(&query, 1, None);
        let brute: (u32, f32) = vectors
            .iter()
            .enumerate()
            .map(|(i, v)| (i as u32, Metric::Cosine.score(&query, v)))
            .max_by(|a, b| a.1.total_cmp(&b.1).then(b.0.cmp(&a.0)))
            .unwrap();
        prop_assert_eq!(hits[0].id, brute.0);
    }

    /// The frozen global tier's form of the index (built by `from_rows`,
    /// searched by `search_append` with nothing skipped — i.e. the
    /// merged two-tier search when the fresh delta is empty) must be
    /// bit-identical to the local tier's form (built by `add`, searched
    /// by `search`) over the same vectors: same ids, same float bits,
    /// same tie-breaks.
    #[test]
    fn frozen_tier_with_empty_delta_equals_single_index_search(
        seed in 0u64..1000,
        n in 2usize..80,
        k in 1usize..20,
    ) {
        use rand::Rng;
        let mut rng = sccf::util::rng::rng_for(seed, 5);
        let dim = 5;
        let data: Vec<f32> = (0..n * dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let frozen = FlatIndex::from_rows(
            n,
            dim,
            data.chunks_exact(dim)
                .enumerate()
                .map(|(i, v)| (i as u32, v.to_vec())),
        );
        let mut flat = FlatIndex::new(dim);
        for v in data.chunks_exact(dim) {
            flat.add(v);
        }
        let q: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let mut a = Vec::new();
        frozen.search_append(&q, k, &|_| false, &mut a);
        let e = flat.search(&q, k, None);
        prop_assert_eq!(a.len(), e.len());
        for (x, y) in a.iter().zip(&e) {
            prop_assert_eq!(x.id, y.id);
            prop_assert_eq!(x.score.to_bits(), y.score.to_bits());
        }
    }

    /// Delta-wins dedup: when a user exists in both tiers, the merged
    /// search must surface her exactly once, scored by the *fresh*
    /// (delta) vector — the frozen copy is masked by the skip set. The
    /// union of frozen-minus-masked and the fresh overrides must equal
    /// a single index holding the freshest vector of every user.
    #[test]
    fn delta_wins_dedup_when_user_exists_in_both_tiers(
        seed in 0u64..1000,
        n in 4usize..60,
        k in 1usize..16,
        n_fresh in 1usize..8,
    ) {
        use rand::Rng;
        use sccf::util::sparse::StampSet;
        let mut rng = sccf::util::rng::rng_for(seed, 6);
        let dim = 4;
        let stale: Vec<f32> = (0..n * dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let frozen = FlatIndex::from_rows(
            n,
            dim,
            stale.chunks_exact(dim)
                .enumerate()
                .map(|(i, v)| (i as u32, v.to_vec())),
        );
        // A fresh delta overriding a subset of users with new vectors.
        let n_fresh = n_fresh.min(n);
        let fresh_ids: Vec<u32> = (0..n_fresh as u32).map(|i| i * (n as u32 / n_fresh as u32)).collect();
        let mut delta = FlatIndex::new(dim);
        let mut fresh_vecs = Vec::new();
        for _ in &fresh_ids {
            let v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            delta.add(&v);
            fresh_vecs.push(v);
        }
        let q: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();

        // The merged two-tier search, exactly as `Sccf` performs it:
        // delta hits first (translated to global ids), stamped into the
        // seen-set; frozen tier skips stamped users; re-rank, top-k.
        let mut seen = StampSet::new(n);
        let mut merged: Vec<sccf::util::topk::Scored> = delta
            .search(&q, k, None)
            .into_iter()
            .map(|mut s| { s.id = fresh_ids[s.id as usize]; s })
            .collect();
        for s in &merged {
            seen.insert(s.id);
        }
        frozen.search_append(&q, k, &|u| seen.contains(u) || fresh_ids.contains(&u), &mut merged);
        merged.sort_unstable_by(|a, b| b.cmp(a));
        merged.truncate(k);

        // Reference: one index where every user has her freshest vector.
        let mut freshest = FlatIndex::new(dim);
        for (u, v) in stale.chunks_exact(dim).enumerate() {
            match fresh_ids.iter().position(|&f| f == u as u32) {
                Some(p) => freshest.add(&fresh_vecs[p]),
                None => freshest.add(v),
            };
        }
        let expect = freshest.search(&q, k, None);
        prop_assert_eq!(merged.len(), expect.len());
        let mut once = StampSet::new(n);
        for (x, y) in merged.iter().zip(&expect) {
            prop_assert_eq!(x.id, y.id);
            prop_assert_eq!(x.score.to_bits(), y.score.to_bits());
            prop_assert!(once.insert(x.id), "user {} surfaced twice", x.id);
        }
    }
}

// ----------------------------------------------------------- data invariants

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Leave-one-out partitions each user's sequence with no leakage.
    #[test]
    fn loo_partitions(lens in prop::collection::vec(0usize..12, 1..30)) {
        let mut inter = Vec::new();
        let mut item = 0u32;
        let n_items = lens.iter().sum::<usize>().max(1);
        for (u, &len) in lens.iter().enumerate() {
            for t in 0..len {
                inter.push(Interaction { user: u as u32, item, ts: t as i64 });
                item += 1;
            }
        }
        let d = Dataset::from_interactions("p", lens.len(), n_items, &inter, None);
        let s = LeaveOneOut::split(&d);
        for u in 0..lens.len() as u32 {
            let full: Vec<u32> = d.sequence(u).to_vec();
            let mut rebuilt = s.train_seq(u).to_vec();
            if let Some(v) = s.val_item(u) {
                rebuilt.push(v);
            }
            if let Some(t) = s.test_item(u) {
                rebuilt.push(t);
            }
            prop_assert_eq!(rebuilt, full);
        }
    }

    /// 5-core filtering never leaves an item or user below the threshold.
    #[test]
    fn core_filter_postcondition(seed in 0u64..500) {
        use rand::Rng;
        let mut rng = sccf::util::rng::rng_for(seed, 2);
        let n_users = 30;
        let n_items = 40;
        let mut inter = Vec::new();
        for u in 0..n_users {
            let len = rng.gen_range(1..12);
            for t in 0..len {
                inter.push(Interaction {
                    user: u,
                    item: rng.gen_range(0..n_items),
                    ts: t,
                });
            }
        }
        let d = Dataset::from_interactions("c", n_users as usize, n_items as usize, &inter, None);
        let f = d.core_filter(3);
        for u in 0..f.n_users() as u32 {
            prop_assert!(f.sequence(u).len() >= 3);
        }
        for (i, &c) in f.item_counts().iter().enumerate() {
            prop_assert!(c >= 3, "item {i} has {c} actions");
        }
    }
}

// ----------------------------------------------------------- Eq. 12 behavior

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Adding a neighbor can only increase (or keep) every item's UU
    /// score — Eq. 12 is a positive-weighted sum.
    #[test]
    fn uu_scores_monotone_in_neighbors(seed in 0u64..300) {
        use rand::Rng;
        use sccf::core::{UserBasedComponent, UserBasedConfig};
        use sccf::util::topk::Scored;
        let mut rng = sccf::util::rng::rng_for(seed, 3);
        let n_items = 20;
        let histories: Vec<Vec<u32>> = (0..6)
            .map(|_| (0..5).map(|_| rng.gen_range(0..n_items as u32)).collect())
            .collect();
        let comp = UserBasedComponent::new(
            UserBasedConfig { beta: 6, recent_window: 5 },
            n_items,
            histories.into_iter(),
        );
        let mut neighbors: Vec<Scored> = (0..3u32)
            .map(|id| Scored { id, score: rng.gen_range(0.01f32..1.0) })
            .collect();
        let before = comp.scores(&neighbors);
        neighbors.push(Scored { id: 4, score: rng.gen_range(0.01f32..1.0) });
        let after = comp.scores(&neighbors);
        for (b, a) in before.iter().zip(&after) {
            prop_assert!(a >= b);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The sparse Eq. 12 accumulator must match the dense `scores()`
    /// output *exactly* — same neighbors, same floats (summation order is
    /// fixed by construction) — across randomized windows, window sizes,
    /// ring-buffer wrap states, and neighborhoods.
    #[test]
    fn sparse_eq12_matches_dense_exactly(seed in 0u64..500, window in 1usize..20) {
        use rand::Rng;
        use sccf::core::{UserBasedComponent, UserBasedConfig};
        use sccf::util::topk::Scored;
        let mut rng = sccf::util::rng::rng_for(seed, 11);
        let n_items = 64usize;
        let n_users = 10usize;
        let histories: Vec<Vec<u32>> = (0..n_users)
            .map(|_| {
                let len = rng.gen_range(0..3 * window);
                (0..len).map(|_| rng.gen_range(0..n_items as u32)).collect()
            })
            .collect();
        let mut comp = UserBasedComponent::new(
            UserBasedConfig { beta: n_users, recent_window: window },
            n_items,
            histories.into_iter(),
        );
        // roll some rings past capacity so wrapped state is exercised
        for _ in 0..rng.gen_range(0..4 * window) {
            let u = rng.gen_range(0..n_users as u32);
            comp.record(u, rng.gen_range(0..n_items as u32));
        }
        let n_neighbors = rng.gen_range(0..=n_users);
        let neighbors: Vec<Scored> = (0..n_neighbors as u32)
            .map(|id| Scored { id, score: rng.gen_range(-0.5f32..1.0) })
            .collect();
        let dense = comp.scores(&neighbors);
        let mut scratch = comp.new_scratch();
        // run twice through the same scratch: stale state must not leak
        comp.scores_into(&neighbors, &mut scratch);
        comp.scores_into(&neighbors, &mut scratch);
        for (i, &d) in dense.iter().enumerate() {
            let s = scratch.scores.get(i as u32);
            prop_assert_eq!(s.to_bits(), d.to_bits(), "item {} sparse {} dense {}", i, s, d);
        }
        // and every touched id really was scored by some neighbor
        for &(id, _) in scratch.scores.iter().collect::<Vec<_>>().iter() {
            prop_assert!(dense[id as usize] != 0.0 || neighbors.iter().any(|n| n.score == 0.0));
        }
        let mut scratch2 = comp.new_scratch();
        let sparse_cands = comp.candidates_sparse(&neighbors, 10, &mut scratch2);
        prop_assert_eq!(sparse_cands, comp.candidates(&neighbors, 10));
    }
}

// ------------------------------------------------- recommend determinism

/// `recommend` must be byte-identical between the one-shot (allocating)
/// path and the scratch-reusing serving path, and stable across repeated
/// calls through the *same* scratch — on a fixed-seed dataset.
#[test]
fn recommend_identical_between_oneshot_and_scratch_paths() {
    use sccf::core::{Sccf, SccfConfig};
    use sccf::models::{Fism, FismConfig, TrainConfig};
    let mut inter = Vec::new();
    for u in 0..24u32 {
        for t in 0..8i64 {
            inter.push(Interaction {
                user: u,
                item: (u * 3 + t as u32 * 5) % 40,
                ts: t,
            });
        }
    }
    let data = Dataset::from_interactions("det", 24, 40, &inter, None);
    let split = LeaveOneOut::split(&data);
    let fism = Fism::train(
        &split,
        &FismConfig {
            train: TrainConfig {
                dim: 8,
                epochs: 3,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let sccf = Sccf::build(
        fism,
        &split,
        SccfConfig {
            candidate_n: 20,
            threads: 1,
            ..Default::default()
        },
    );
    let mut scratch = sccf.new_scratch();
    for u in 0..24u32 {
        let history = split.train_plus_val(u);
        let oneshot = sccf.recommend(u, &history, 10);
        let with_scratch = sccf.recommend_with(u, &history, 10, &mut scratch);
        assert_eq!(oneshot.len(), with_scratch.len(), "user {u}");
        for (a, b) in oneshot.iter().zip(&with_scratch) {
            assert_eq!(a.id, b.id, "user {u}");
            assert_eq!(a.score.to_bits(), b.score.to_bits(), "user {u}");
        }
        // a second pass through the reused scratch must not drift
        let again = sccf.recommend_with(u, &history, 10, &mut scratch);
        assert_eq!(with_scratch, again, "user {u} scratch reuse drifted");
    }
}

// ------------------------------------------------- latency recorder

/// `mean_ms` / `count` / `max_ms` bits of this stream, taken at the
/// parent of the change that gave `TimingStats` its buckets — the
/// Welford half must not move by a bit.
#[test]
fn timing_stats_welford_bits_are_pinned() {
    let mut t = sccf::util::TimingStats::new();
    for k in 0..1000u64 {
        t.record_ms(((k * 7919 + 13) % 4099) as f64 / 211.0 + 1.0 / (k as f64 + 3.0));
    }
    assert_eq!(t.count(), 1000);
    assert_eq!(t.mean_ms().to_bits(), 0x40236178f9aeaf32);
    assert_eq!(t.max_ms().to_bits(), 0x403362c4addea4a6);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Quantiles are monotone in q, the extremes are exact, and every
    /// other quantile is the upper edge of the sample's bucket: at least
    /// the exact sample of that rank and at most 1/16 above it (16
    /// buckets per power of two, cut from the f64 bit pattern).
    #[test]
    fn timing_stats_quantile_accuracy(
        samples in prop::collection::vec(0.001f64..1e4, 1..300),
    ) {
        let mut h = sccf::util::TimingStats::new();
        for &s in &samples {
            h.record_ms(s);
        }
        let mut sorted = samples.clone();
        sorted.sort_by(f64::total_cmp);
        let mut prev = 0.0f64;
        for q in [0.1, 0.5, 0.9, 0.99] {
            let got = h.quantile_ms(q);
            prop_assert!(got >= prev);
            prev = got;
            let idx = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
            let exact = sorted[idx];
            prop_assert!(
                exact <= got && got <= exact * (1.0 + 1.0 / 16.0),
                "q{q}: recorder {got} vs exact {exact}"
            );
        }
        prop_assert_eq!(h.quantile_ms(0.0), sorted[0]);
        prop_assert_eq!(h.quantile_ms(1.0), sorted[sorted.len() - 1]);
    }

    /// Recording a stream in pieces and merging equals recording it
    /// whole: count and every quantile bit-equal (bucket sums and exact
    /// extremes), the mean within Welford merge tolerance.
    #[test]
    fn timing_stats_merge_of_split_streams_equals_one_stream(
        samples in prop::collection::vec(1e-7f64..1e5, 1..300),
        cuts in prop::collection::vec(0usize..300, 0..4),
    ) {
        use sccf::util::TimingStats;
        let mut whole = TimingStats::new();
        for &s in &samples {
            whole.record_ms(s);
        }
        let mut bounds: Vec<usize> = cuts.iter().map(|&c| c % (samples.len() + 1)).collect();
        bounds.push(0);
        bounds.push(samples.len());
        bounds.sort_unstable();
        let mut merged = TimingStats::new();
        for w in bounds.windows(2) {
            let mut part = TimingStats::new();
            for &s in &samples[w[0]..w[1]] {
                part.record_ms(s);
            }
            merged.merge(&part);
        }
        prop_assert_eq!(merged.count(), whole.count());
        for k in 0..=100 {
            let q = k as f64 / 100.0;
            prop_assert_eq!(merged.quantile_ms(q).to_bits(), whole.quantile_ms(q).to_bits(), "q{}", q);
        }
        prop_assert!((merged.mean_ms() - whole.mean_ms()).abs() <= 1e-10 * whole.mean_ms().abs().max(1.0));
    }
}

// ------------------------------------------------- linear CF invariants

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// SLIM weights are always non-negative with a zero diagonal, and
    /// raising ℓ1 never increases the number of non-zeros.
    #[test]
    fn slim_structural_invariants(seed in 0u64..200) {
        use rand::{Rng, SeedableRng};
        use sccf::models::{LinearCfConfig, Slim};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n_items = 10usize;
        let sets: Vec<Vec<u32>> = (0..12)
            .map(|_| {
                let mut s: Vec<u32> = (0..n_items as u32)
                    .filter(|_| rng.gen_bool(0.4))
                    .collect();
                if s.is_empty() {
                    s.push(rng.gen_range(0..n_items as u32));
                }
                s
            })
            .collect();
        let weak = Slim::fit(&sets, n_items, &LinearCfConfig { l1: 0.05, threads: 1, ..Default::default() });
        let strong = Slim::fit(&sets, n_items, &LinearCfConfig { l1: 3.0, threads: 1, ..Default::default() });
        for i in 0..n_items as u32 {
            prop_assert_eq!(weak.weights_of(i)[i as usize], 0.0);
            prop_assert!(weak.weights_of(i).iter().all(|&w| w >= 0.0));
        }
        prop_assert!(strong.nnz() <= weak.nnz());
    }
}

// ------------------------------------------------- realtime snapshot

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The realtime snapshot codec roundtrips arbitrary history shapes
    /// byte-exactly (decode ∘ encode = id), via the public engine API on
    /// a minimal framework.
    #[test]
    fn snapshot_codec_roundtrip(lens in prop::collection::vec(0usize..12, 2..10)) {
        use sccf::core::{RealtimeEngine, Sccf, SccfConfig};
        use sccf::models::{Fism, FismConfig, TrainConfig};
        // one tiny shared dataset; histories vary with `lens`
        let n_users = lens.len();
        let n_items = 16usize;
        let mut inter = Vec::new();
        for u in 0..n_users as u32 {
            for t in 0..5i64 {
                inter.push(Interaction { user: u, item: (u + t as u32) % n_items as u32, ts: t });
            }
        }
        let data = Dataset::from_interactions("p", n_users, n_items, &inter, None);
        let split = LeaveOneOut::split(&data);
        let fism = Fism::train(&split, &FismConfig {
            train: TrainConfig { dim: 4, epochs: 1, ..Default::default() },
            ..Default::default()
        });
        let sccf = Sccf::build(fism, &split, SccfConfig {
            threads: 1,
            ..Default::default()
        });
        let histories: Vec<Vec<u32>> = lens
            .iter()
            .enumerate()
            .map(|(u, &l)| (0..l as u32).map(|t| (u as u32 + t) % n_items as u32).collect())
            .collect();
        let engine = RealtimeEngine::new(sccf, histories.clone());
        let snap = engine.snapshot();
        let restored = RealtimeEngine::restore(engine.into_sccf(), &snap).unwrap();
        for (u, h) in histories.iter().enumerate() {
            prop_assert_eq!(restored.history(u as u32), h.as_slice());
        }
    }
}

// ---------------------------------------------- frozen-tier acceleration

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Exhaustive-beam HNSW over the frozen tier, followed by the exact
    /// rerank, is bit-identical to the flat scan: with `ef ≥ population`
    /// the beam never saturates, the walk visits the whole layer-0
    /// component, and the candidate set therefore contains the true
    /// top-β — which the rerank scores with the same float expression
    /// and `Scored` tie-break as the scan.
    #[test]
    fn tier_hnsw_exhaustive_equals_flat_bitwise(seed in 0u64..500) {
        use rand::{Rng, SeedableRng};
        use sccf::index::{FrozenTierAccel, FrozenTierMode, TierScratch};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let dim = 6;
        let n = rng.gen_range(20usize..120);
        let rows: Vec<(u32, Vec<f32>)> = (0..n as u32)
            .map(|u| (u, (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect()))
            .collect();
        let frozen = FlatIndex::from_rows(n, dim, rows);
        let accel =
            FrozenTierAccel::build(FrozenTierMode::Hnsw { ef: n }, &frozen, seed).unwrap();
        let mut scratch = TierScratch::new();
        let q: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let beta = rng.gen_range(1usize..=20);
        let exact = frozen.search(&q, beta, None);
        let mut fast = Vec::new();
        accel.search_append(&frozen, &q, beta, &|_| false, &mut scratch, &mut fast);
        prop_assert_eq!(exact.len(), fast.len());
        for (a, b) in exact.iter().zip(&fast) {
            prop_assert_eq!(a.id, b.id);
            prop_assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
    }

    /// Accelerated snapshots survive encode → decode → re-encode
    /// byte-identically in every tier mode, and the decoded tier
    /// searches exactly like the original.
    #[test]
    fn tier_snapshot_roundtrip_all_modes(seed in 0u64..150, mode_tag in 0u8..2) {
        use rand::{Rng, SeedableRng};
        use sccf::core::GlobalNeighborSnapshot;
        use sccf::index::{FrozenTierMode, TierScratch};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed.wrapping_mul(31));
        let dim = 4;
        let n = rng.gen_range(8usize..60);
        let entries: Vec<(u32, Vec<f32>, Vec<u32>)> = (0..n as u32)
            .map(|u| {
                let v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
                let w: Vec<u32> = (0..rng.gen_range(0usize..4)).map(|t| t as u32).collect();
                (u, v, w)
            })
            .collect();
        let mode = match mode_tag {
            0 => FrozenTierMode::Flat,
            _ => FrozenTierMode::Hnsw { ef: 32 },
        };
        let snap = GlobalNeighborSnapshot::build_with_mode(9, n, dim, mode, seed, entries);
        let bytes = snap.encode();
        let back = GlobalNeighborSnapshot::decode(&bytes).unwrap();
        prop_assert_eq!(back.encode(), bytes);
        prop_assert_eq!(back.tier_mode(), snap.tier_mode());
        prop_assert_eq!(back.tier_bytes(), snap.tier_bytes());
        let q: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let mut scratch = TierScratch::new();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        snap.search_append_with(&q, 8, &|_| false, &mut scratch, &mut a);
        back.search_append_with(&q, 8, &|_| false, &mut scratch, &mut b);
        prop_assert_eq!(a, b);
    }
}

// ------------------------------------------------- SIMD differentials
//
// The workspace's four `unsafe` sites are the AVX2 bodies of `dot` and
// `axpy` and their dispatch sites (`sccf-tensor/src/simd.rs`). These
// properties hold them to the scalar kernels over the inputs the unit
// tests do not reach: sub-slices at every 4-byte offset (so no load is
// 32-byte aligned by luck), zero and odd lengths, unequal lengths, and
// values mixing ordinary magnitudes with denormals and signed zeros.
// Where the reduction order is defined — `dot` vs `dot_scalar`, `axpy`
// vs `axpy_scalar`, `matvec_into` vs per-row `dot`: all three share
// the 8-lane tree — the check is bit-equality. Against the sequential
// f64 sum, whose order differs, it is the standard error bound.

/// One generated `f32`: mostly the drawn value, sometimes a denormal
/// of its sign, sometimes a signed zero.
fn simd_value((v, kind): (f32, u8)) -> f32 {
    match kind {
        0 => f32::from_bits(1 + (v.abs() * 1e5) as u32).copysign(v),
        1 => 0.0f32.copysign(v),
        _ => v,
    }
}

fn simd_values(raw: &[(f32, u8)]) -> Vec<f32> {
    raw.iter().copied().map(simd_value).collect()
}

/// `slab[off..]` cut to `len`, both clamped to what the slab holds.
fn simd_window(slab: &[f32], off: usize, len: usize) -> std::ops::Range<usize> {
    let off = off.min(slab.len());
    off..off + len.min(slab.len() - off)
}

proptest! {
    /// `dot` (AVX2 where the CPU has it) is bit-equal to `dot_scalar`
    /// on equal-length unaligned sub-slices, and within the summation
    /// error bound `2·n·u·Σ|xᵢyᵢ|` of the sequential f64 sum.
    #[test]
    fn simd_dot_equals_scalar_bitwise_and_bounds_the_sequential_sum(
        raw_a in prop::collection::vec((-4.0f32..4.0, 0u8..8), 0..96),
        raw_b in prop::collection::vec((-4.0f32..4.0, 0u8..8), 0..96),
        off_a in 0usize..8,
        off_b in 0usize..8,
        len in 0usize..96,
    ) {
        use sccf::tensor::simd::{dot, dot_scalar};
        let (a, b) = (simd_values(&raw_a), simd_values(&raw_b));
        let (wa, wb) = (simd_window(&a, off_a, len), simd_window(&b, off_b, len));
        let n = wa.len().min(wb.len());
        let (x, y) = (&a[wa.start..wa.start + n], &b[wb.start..wb.start + n]);
        let got = dot(x, y);
        prop_assert_eq!(got.to_bits(), dot_scalar(x, y).to_bits(), "len {}", n);
        let exact: f64 = x.iter().zip(y).map(|(&p, &q)| p as f64 * q as f64).sum();
        let mass: f64 = x.iter().zip(y).map(|(&p, &q)| (p as f64 * q as f64).abs()).sum();
        let u = f32::EPSILON as f64 / 2.0;
        // + one denormal step per product: an underflowing f32 product
        // rounds absolutely, not relatively.
        let bound = 2.0 * n as f64 * u * mass + n as f64 * f32::from_bits(1) as f64;
        prop_assert!((got as f64 - exact).abs() <= bound, "len {}: {} vs {}", n, got, exact);
    }

    /// Unequal lengths are a caller bug: debug-asserted on both paths,
    /// and in a release build still bit-equal (both kernels zip) and in
    /// bounds.
    #[test]
    fn simd_dot_on_unequal_lengths_agrees_or_asserts(
        raw_a in prop::collection::vec((-4.0f32..4.0, 0u8..8), 0..64),
        raw_b in prop::collection::vec((-4.0f32..4.0, 0u8..8), 0..64),
        off_a in 0usize..8,
        off_b in 0usize..8,
    ) {
        use sccf::tensor::simd::{dot, dot_scalar};
        let (a, b) = (simd_values(&raw_a), simd_values(&raw_b));
        let (x, y) = (&a[simd_window(&a, off_a, 64)], &b[simd_window(&b, off_b, 64)]);
        prop_assume!(x.len() != y.len());
        if cfg!(debug_assertions) {
            prop_assert!(std::panic::catch_unwind(|| dot(x, y)).is_err());
            prop_assert!(std::panic::catch_unwind(|| dot_scalar(x, y)).is_err());
        } else {
            prop_assert_eq!(dot(x, y).to_bits(), dot_scalar(x, y).to_bits());
        }
    }

    /// `axpy` is bit-equal to `axpy_scalar` element by element on
    /// equal-length unaligned sub-slices and writes nothing outside
    /// `y`. On unequal lengths (debug-asserted) which elements of `y`
    /// move is unspecified — only that nothing outside it does.
    #[test]
    fn simd_axpy_equals_scalar_bitwise_and_stays_inside_y(
        raw_x in prop::collection::vec((-4.0f32..4.0, 0u8..8), 0..96),
        raw_y in prop::collection::vec((-4.0f32..4.0, 0u8..8), 0..96),
        alpha in (-2.0f32..2.0, 0u8..8),
        off_x in 0usize..8,
        off_y in 0usize..8,
        len_x in 0usize..96,
        len_y in 0usize..96,
        equal in 0u8..4,
    ) {
        use sccf::tensor::simd::{axpy, axpy_scalar};
        let (x, y) = (simd_values(&raw_x), simd_values(&raw_y));
        let alpha = simd_value(alpha);
        let (mut wx, mut wy) = (simd_window(&x, off_x, len_x), simd_window(&y, off_y, len_y));
        if equal != 0 {
            let n = wx.len().min(wy.len());
            (wx, wy) = (wx.start..wx.start + n, wy.start..wy.start + n);
        }
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<u32>>();
        let (mut fast, mut slow) = (y.clone(), y.clone());
        if wx.len() == wy.len() {
            axpy(alpha, &x[wx.clone()], &mut fast[wy.clone()]);
            axpy_scalar(alpha, &x[wx], &mut slow[wy]);
            prop_assert_eq!(bits(&fast), bits(&slow));
        } else if cfg!(debug_assertions) {
            let call = std::panic::AssertUnwindSafe(|| axpy(alpha, &x[wx], &mut fast[wy]));
            prop_assert!(std::panic::catch_unwind(call).is_err());
        } else {
            axpy(alpha, &x[wx], &mut fast[wy.clone()]);
            prop_assert_eq!(bits(&fast[..wy.start]), bits(&y[..wy.start]));
            prop_assert_eq!(bits(&fast[wy.end..]), bits(&y[wy.end..]));
        }
    }

    /// `matvec_into` — four rows per block, scalar lanes — is bit-equal
    /// to one `dot` per row, block rows and remainder rows alike, for
    /// any width including 0 and non-multiples of 8.
    #[test]
    fn simd_matvec_equals_per_row_dot_bitwise(
        rows in 0usize..11,
        cols in 0usize..41,
        raw_m in prop::collection::vec((-4.0f32..4.0, 0u8..8), 400),
        raw_v in prop::collection::vec((-4.0f32..4.0, 0u8..8), 48),
        off_v in 0usize..8,
    ) {
        use sccf::tensor::{dot, matvec_into, Mat};
        let mut data = simd_values(&raw_m);
        data.truncate(rows * cols);
        let m = Mat::from_vec(rows, cols, data);
        let v = simd_values(&raw_v);
        let v = &v[off_v..off_v + cols];
        let mut out = vec![f32::NAN; rows];
        matvec_into(&m, v, &mut out);
        for (r, got) in out.iter().enumerate() {
            prop_assert_eq!(got.to_bits(), dot(m.row(r), v).to_bits(), "row {} of {}x{}", r, rows, cols);
        }
    }
}
