//! Latent-factor synthetic data generator — the stand-in for MovieLens /
//! Amazon / Taobao logs, none of which can be downloaded in this
//! environment.
//!
//! The generator is built so that every mechanism the paper exploits
//! demonstrably exists in the data:
//!
//! 1. **Global structure** — items carry latent vectors organized around
//!    category centroids, with Zipf popularity. UI models can learn this.
//! 2. **Local neighborhoods** — users are drawn from a mixture of
//!    interest *groups*; members of one group share a category taste
//!    profile. This is exactly the "similar users" signal the user-based
//!    component mines (and what GLSLIM's fixed clusters approximate).
//! 3. **Temporal drift** — a user's interest vector random-walks and
//!    occasionally *jumps* to a new category, reproducing Figure 1's
//!    observation that ~50 % of the categories a user clicks today are
//!    new within a two-week window.
//! 4. **Niche co-occurrence ("beer & diapers")** — selected cross-category
//!    item pairs co-occur only inside one user group, giving the local
//!    component something the global model provably averages away.
//!
//! The generator also exports its [`GroundTruth`] (final user/item
//! latents) so the serving simulator can model clicks against true
//! preferences rather than against any learned model.

use rand::rngs::StdRng;
use rand::Rng;
use sccf_util::rng::{rng_for, streams};

use crate::dataset::{Dataset, Interaction};

/// Shape parameters of one synthetic dataset.
#[derive(Debug, Clone)]
pub struct SyntheticConfig {
    pub name: String,
    pub n_users: usize,
    pub n_items: usize,
    pub n_categories: usize,
    /// Number of user interest groups (the neighborhood structure).
    pub n_groups: usize,
    /// Latent dimensionality of the ground-truth factors.
    pub latent_dim: usize,
    /// Mean interactions per user (per-user counts are geometric-ish).
    pub mean_len: f64,
    /// Minimum interactions per user (keeps 5-core filtering mild).
    pub min_len: usize,
    /// Zipf exponent for item popularity inside a category.
    pub zipf_s: f64,
    /// Within-group user scatter: 0 = everyone at the centroid
    /// (maximal neighborhood signal), large = no group structure.
    pub user_scatter: f32,
    /// Within-category item scatter.
    pub item_scatter: f32,
    /// Per-event magnitude of the interest random walk.
    pub drift: f32,
    /// Per-event probability of jumping to a fresh category.
    pub jump_prob: f64,
    /// Softmax temperature over category affinities (higher = more
    /// deterministic category choice).
    pub category_temp: f32,
    /// Item-level personalization: within a category, item weights are
    /// `pop_i · exp(item_temp · z·w_i)`. Zero reduces to pure popularity
    /// (which would make Pop nearly unbeatable).
    pub item_temp: f32,
    /// Probability the next event continues from the *previous item*
    /// (same category, latent-similar item) — the sequential structure
    /// SASRec exploits and order-free models cannot.
    pub markov_prob: f64,
    /// Strength of the previous-item similarity bias under a Markov step.
    pub seq_temp: f32,
    /// Number of cross-category niche pairs per group.
    pub niche_pairs: usize,
    /// Probability that a group member's stream has its niche pair
    /// injected.
    pub niche_prob: f64,
    /// Days spanned by the event stream (drives Figure 1).
    pub n_days: i64,
}

impl Default for SyntheticConfig {
    fn default() -> Self {
        Self {
            name: "synthetic".into(),
            n_users: 500,
            n_items: 400,
            n_categories: 24,
            n_groups: 12,
            latent_dim: 16,
            mean_len: 30.0,
            min_len: 6,
            zipf_s: 1.0,
            user_scatter: 0.25,
            item_scatter: 0.35,
            drift: 0.08,
            jump_prob: 0.06,
            category_temp: 5.0,
            item_temp: 3.0,
            markov_prob: 0.3,
            seq_temp: 4.0,
            niche_pairs: 1,
            niche_prob: 0.3,
            n_days: 30,
        }
    }
}

/// The generator's hidden state, exported for simulation-based evaluation
/// (the A/B test of Table V scores clicks against these latents).
#[derive(Debug, Clone)]
pub struct GroundTruth {
    /// Final (post-drift) user latent vectors, one per user.
    pub user_latent: Vec<Vec<f32>>,
    /// Item latent vectors.
    pub item_latent: Vec<Vec<f32>>,
    /// Item popularity weights (unnormalized).
    pub item_pop: Vec<f64>,
    /// Group id of every user.
    pub user_group: Vec<u32>,
    /// The injected niche pairs, one list per group.
    pub niche: Vec<Vec<(u32, u32)>>,
}

impl GroundTruth {
    /// True affinity of user `u` for item `i` (inner product of latents).
    pub fn affinity(&self, u: u32, i: u32) -> f32 {
        sccf_tensor_free_dot(&self.user_latent[u as usize], &self.item_latent[i as usize])
    }
}

// Tiny local dot to avoid a dependency edge from data → tensor.
fn sccf_tensor_free_dot(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

fn normalize(v: &mut [f32]) {
    let n = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    if n > f32::EPSILON {
        for x in v {
            *x /= n;
        }
    }
}

fn gauss(rng: &mut StdRng) -> f32 {
    // Box–Muller
    let u1: f32 = 1.0 - rng.gen::<f32>();
    let u2: f32 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

fn random_unit(rng: &mut StdRng, d: usize) -> Vec<f32> {
    let mut v: Vec<f32> = (0..d).map(|_| gauss(rng)).collect();
    normalize(&mut v);
    v
}

/// Alias-free weighted sampling from cumulative weights.
fn sample_cumulative(rng: &mut StdRng, cum: &[f64]) -> usize {
    let total = *cum.last().expect("non-empty weights");
    let x = rng.gen::<f64>() * total;
    cum.partition_point(|&c| c < x).min(cum.len() - 1)
}

/// Output of [`generate`]: the observable dataset plus the hidden truth.
#[derive(Debug, Clone)]
pub struct SyntheticData {
    pub dataset: Dataset,
    pub truth: GroundTruth,
}

/// Generate a dataset from `cfg`, deterministically from `seed`.
pub fn generate(cfg: &SyntheticConfig, seed: u64) -> SyntheticData {
    let mut rng = rng_for(seed, streams::DATA_GEN);
    let d = cfg.latent_dim;

    // --- item side: category centroids, item latents, Zipf popularity ---
    let cat_centroids: Vec<Vec<f32>> = (0..cfg.n_categories)
        .map(|_| random_unit(&mut rng, d))
        .collect();
    let mut item_latent = Vec::with_capacity(cfg.n_items);
    let mut item_cat = Vec::with_capacity(cfg.n_items);
    let mut item_pop = Vec::with_capacity(cfg.n_items);
    let mut items_by_cat: Vec<Vec<u32>> = vec![Vec::new(); cfg.n_categories];
    for i in 0..cfg.n_items {
        let c = i % cfg.n_categories;
        let mut v = cat_centroids[c].clone();
        for x in v.iter_mut() {
            *x += cfg.item_scatter * gauss(&mut rng);
        }
        normalize(&mut v);
        item_latent.push(v);
        item_cat.push(c as u32);
        // Zipf by within-category rank.
        let rank = (i / cfg.n_categories) + 1;
        item_pop.push(1.0 / (rank as f64).powf(cfg.zipf_s));
        items_by_cat[c].push(i as u32);
    }

    // --- user side: groups, latents, niche pairs ---
    let group_centroids: Vec<Vec<f32>> = (0..cfg.n_groups)
        .map(|_| random_unit(&mut rng, d))
        .collect();
    // Each group's taste: which categories it likes (derived from latent
    // affinity to category centroids at generation time).
    let mut niche: Vec<Vec<(u32, u32)>> = Vec::with_capacity(cfg.n_groups);
    for _g in 0..cfg.n_groups {
        let mut pairs = Vec::new();
        for _ in 0..cfg.niche_pairs {
            // Pick two distinct categories and one popular item from each:
            // a cross-category pair only this group co-consumes.
            let c1 = rng.gen_range(0..cfg.n_categories);
            let mut c2 = rng.gen_range(0..cfg.n_categories);
            while c2 == c1 {
                c2 = rng.gen_range(0..cfg.n_categories);
            }
            if items_by_cat[c1].is_empty() || items_by_cat[c2].is_empty() {
                continue;
            }
            let i1 = items_by_cat[c1][rng.gen_range(0..items_by_cat[c1].len().min(3))];
            let i2 = items_by_cat[c2][rng.gen_range(0..items_by_cat[c2].len().min(3))];
            pairs.push((i1, i2));
        }
        niche.push(pairs);
    }

    let mut user_latent = Vec::with_capacity(cfg.n_users);
    let mut user_group = Vec::with_capacity(cfg.n_users);
    let mut interactions = Vec::new();

    for u in 0..cfg.n_users {
        let g = u % cfg.n_groups;
        user_group.push(g as u32);
        let mut z = group_centroids[g].clone();
        for x in z.iter_mut() {
            *x += cfg.user_scatter * gauss(&mut rng);
        }
        normalize(&mut z);

        // Sequence length: shifted geometric around mean_len.
        let extra_mean = (cfg.mean_len - cfg.min_len as f64).max(1.0);
        let p = 1.0 / extra_mean;
        let mut len = cfg.min_len;
        while rng.gen::<f64>() > p && len < cfg.min_len + (extra_mean * 8.0) as usize {
            len += 1;
        }

        let mut seen = sccf_util::hash::fx_set_with_capacity(len);
        let mut events: Vec<u32> = Vec::with_capacity(len);
        let mut t = 0usize;
        while events.len() < len {
            t += 1;
            if t > len * 20 {
                break; // saturated a tiny catalog; give up gracefully
            }
            // interest evolution
            if rng.gen::<f64>() < cfg.jump_prob {
                let nc = rng.gen_range(0..cfg.n_categories);
                for (zx, &cx) in z.iter_mut().zip(&cat_centroids[nc]) {
                    *zx = 0.5 * *zx + 0.5 * cx;
                }
                normalize(&mut z);
            } else if cfg.drift > 0.0 {
                for zx in z.iter_mut() {
                    *zx += cfg.drift * gauss(&mut rng);
                }
                normalize(&mut z);
            }
            // Markov continuation: stay in the previous item's category
            // and prefer latent-similar items (sequential structure), or
            // an interest-driven fresh pick.
            let anchor: Option<u32> = if !events.is_empty() && rng.gen::<f64>() < cfg.markov_prob {
                events.last().copied()
            } else {
                None
            };
            let cat = match anchor {
                Some(prev) => item_cat[prev as usize] as usize,
                None => {
                    // category by softmax over latent affinity
                    let logits: Vec<f64> = cat_centroids
                        .iter()
                        .map(|c| (cfg.category_temp * sccf_tensor_free_dot(&z, c)) as f64)
                        .collect();
                    let max = logits.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                    let mut cum = Vec::with_capacity(logits.len());
                    let mut acc = 0.0;
                    for &l in &logits {
                        acc += (l - max).exp();
                        cum.push(acc);
                    }
                    sample_cumulative(&mut rng, &cum)
                }
            };
            if items_by_cat[cat].is_empty() {
                continue;
            }
            // item within category: popularity × personal affinity
            // (× previous-item similarity under a Markov step)
            let candidates = &items_by_cat[cat];
            let mut cum = Vec::with_capacity(candidates.len());
            let mut acc = 0.0f64;
            for &i in candidates {
                let mut w = item_pop[i as usize];
                let aff = sccf_tensor_free_dot(&z, &item_latent[i as usize]);
                w *= ((cfg.item_temp * aff) as f64).exp();
                if let Some(prev) = anchor {
                    let seq =
                        sccf_tensor_free_dot(&item_latent[prev as usize], &item_latent[i as usize]);
                    w *= ((cfg.seq_temp * seq) as f64).exp();
                }
                acc += w;
                cum.push(acc);
            }
            let item = candidates[sample_cumulative(&mut rng, &cum)];
            if seen.insert(item) {
                events.push(item);
            }
        }

        // niche pair injection for this user's group
        if rng.gen::<f64>() < cfg.niche_prob {
            for &(i1, i2) in &niche[g] {
                for i in [i1, i2] {
                    if seen.insert(i) {
                        // insert at a random position to avoid an artificial
                        // "always at the end" sequence signal
                        let pos = rng.gen_range(0..=events.len());
                        events.insert(pos, i);
                    }
                }
            }
        }

        // timestamps: spread events evenly across the day horizon
        let n = events.len().max(1);
        for (idx, &item) in events.iter().enumerate() {
            let day = ((idx as i64) * cfg.n_days) / n as i64;
            interactions.push(Interaction {
                user: u as u32,
                item,
                ts: day.min(cfg.n_days - 1),
            });
        }
        user_latent.push(z);
    }

    let dataset = Dataset::from_interactions(
        cfg.name.clone(),
        cfg.n_users,
        cfg.n_items,
        &interactions,
        Some(item_cat),
    );
    SyntheticData {
        dataset,
        truth: GroundTruth {
            user_latent,
            item_latent,
            item_pop,
            user_group,
            niche,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> SyntheticConfig {
        SyntheticConfig {
            name: "test".into(),
            n_users: 60,
            n_items: 80,
            n_categories: 8,
            n_groups: 4,
            mean_len: 15.0,
            ..Default::default()
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let cfg = small_cfg();
        let a = generate(&cfg, 7);
        let b = generate(&cfg, 7);
        assert_eq!(a.dataset.n_actions(), b.dataset.n_actions());
        for u in 0..a.dataset.n_users() as u32 {
            assert_eq!(a.dataset.sequence(u), b.dataset.sequence(u));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = small_cfg();
        let a = generate(&cfg, 7);
        let b = generate(&cfg, 8);
        let same =
            (0..a.dataset.n_users() as u32).all(|u| a.dataset.sequence(u) == b.dataset.sequence(u));
        assert!(!same);
    }

    #[test]
    fn respects_min_len_and_no_repeats() {
        let cfg = small_cfg();
        let out = generate(&cfg, 3);
        for u in 0..out.dataset.n_users() as u32 {
            let seq = out.dataset.sequence(u);
            assert!(seq.len() >= cfg.min_len, "user {u}: {}", seq.len());
            let set: sccf_util::FxHashSet<u32> = seq.iter().copied().collect();
            assert_eq!(set.len(), seq.len(), "user {u} has repeats");
        }
    }

    #[test]
    fn group_members_are_more_similar_than_strangers() {
        // The whole point of the generator: users in the same group share
        // interacted categories far more than users across groups.
        let cfg = SyntheticConfig {
            user_scatter: 0.15,
            jump_prob: 0.02,
            drift: 0.03,
            ..small_cfg()
        };
        let out = generate(&cfg, 5);
        let d = &out.dataset;
        let cat_profile = |u: u32| -> Vec<f64> {
            let mut p = vec![0.0f64; d.n_categories()];
            for &i in d.sequence(u) {
                p[d.category_of(i) as usize] += 1.0;
            }
            let n: f64 = p.iter().sum();
            for x in &mut p {
                *x /= n.max(1.0);
            }
            p
        };
        let cos = |a: &[f64], b: &[f64]| {
            let dot: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
            let na: f64 = a.iter().map(|x| x * x).sum::<f64>().sqrt();
            let nb: f64 = b.iter().map(|x| x * x).sum::<f64>().sqrt();
            dot / (na * nb).max(1e-12)
        };
        let mut within = Vec::new();
        let mut across = Vec::new();
        for u in 0..d.n_users() as u32 {
            for v in (u + 1)..d.n_users() as u32 {
                let s = cos(&cat_profile(u), &cat_profile(v));
                if out.truth.user_group[u as usize] == out.truth.user_group[v as usize] {
                    within.push(s);
                } else {
                    across.push(s);
                }
            }
        }
        let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            avg(&within) > avg(&across) + 0.05,
            "within {} vs across {}",
            avg(&within),
            avg(&across)
        );
    }

    #[test]
    fn popularity_is_skewed() {
        let out = generate(&small_cfg(), 11);
        let mut counts = out.dataset.item_counts();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let top_decile: u32 = counts[..counts.len() / 10].iter().sum();
        let total: u32 = counts.iter().sum();
        // Zipf: top 10% of items should hold well over 10% of actions.
        assert!(top_decile as f64 > 0.2 * total as f64);
    }

    #[test]
    fn timestamps_cover_horizon_monotonically() {
        let cfg = small_cfg();
        let out = generate(&cfg, 13);
        for u in 0..out.dataset.n_users() as u32 {
            let ts = out.dataset.times(u);
            assert!(ts.windows(2).all(|w| w[0] <= w[1]));
            assert!(*ts.last().unwrap() < cfg.n_days);
            assert!(ts[0] >= 0);
        }
    }

    #[test]
    fn ground_truth_dimensions() {
        let cfg = small_cfg();
        let out = generate(&cfg, 17);
        assert_eq!(out.truth.user_latent.len(), cfg.n_users);
        assert_eq!(out.truth.item_latent.len(), cfg.n_items);
        assert_eq!(out.truth.item_pop.len(), cfg.n_items);
        assert_eq!(out.truth.niche.len(), cfg.n_groups);
        let aff = out.truth.affinity(0, 0);
        assert!(aff.is_finite());
    }
}
