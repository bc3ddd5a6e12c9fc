//! Shared plumbing: dataset preparation, model training, SCCF assembly
//! and Table-II-style row evaluation.

use sccf_core::{FrozenTierMode, IntegratorConfig, Sccf, SccfConfig, UserBasedConfig};
use sccf_data::catalog::Scale;
use sccf_data::synthetic::{generate, SyntheticConfig, SyntheticData};
use sccf_data::{Dataset, LeaveOneOut};
use sccf_eval::{evaluate, EvalResult, EvalTarget, Scorer};
use sccf_models::{
    Fism, FismConfig, InductiveUiModel, ItemKnn, Pop, SasRec, SasRecConfig, TrainConfig, UserKnn,
    UserSim,
};

/// Global harness knobs, derived from CLI flags.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    pub scale: Scale,
    pub seed: u64,
    pub threads: usize,
    /// Embedding dimension for Table II (Figure 5 sweeps its own).
    pub dim: usize,
    /// Neighborhood size β for Table II (Table IV sweeps its own).
    pub beta: usize,
    /// Report cutoffs.
    pub ks: Vec<usize>,
    pub verbose: bool,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        Self {
            scale: Scale::Quick,
            seed: 42,
            threads: num_threads(),
            dim: 32,
            beta: 100,
            ks: vec![20, 50, 100],
            verbose: false,
        }
    }
}

/// Available parallelism with a sane floor.
pub fn num_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .clamp(2, 16)
}

/// A generated + preprocessed dataset with its split.
pub struct PreparedData {
    pub raw: SyntheticData,
    /// After the paper's 5-core preprocessing.
    pub data: Dataset,
    pub split: LeaveOneOut,
}

/// Generate, 5-core filter and split one benchmark dataset.
pub fn prepare(cfg: &SyntheticConfig, seed: u64) -> PreparedData {
    let raw = generate(cfg, seed);
    let data = raw.dataset.core_filter(5);
    let split = LeaveOneOut::split(&data);
    PreparedData { raw, data, split }
}

/// Epoch budget per scale: quick keeps the whole suite in CPU minutes.
pub fn epochs_for(scale: Scale) -> usize {
    match scale {
        Scale::Quick => 10,
        Scale::Full => 25,
    }
}

/// The trained model suite for one dataset (one Table II column group).
pub struct ModelSuite {
    pub pop: Pop,
    pub itemknn: ItemKnn,
    pub userknn: UserKnn,
    pub fism: Fism,
    pub sasrec: SasRec,
}

/// SASRec's maximum sequence length per dataset family (§IV-A.4: 200 for
/// MovieLens, 50 for Amazon; scaled to our sequence lengths).
pub fn max_len_for(data: &Dataset) -> usize {
    if data.stats().avg_length > 20.0 {
        50
    } else {
        20
    }
}

/// Trainer settings every UI model of one run shares.
pub fn train_config(h: &HarnessConfig) -> TrainConfig {
    TrainConfig {
        dim: h.dim,
        epochs: epochs_for(h.scale),
        seed: h.seed,
        verbose: h.verbose,
        ..Default::default()
    }
}

pub fn train_fism(split: &LeaveOneOut, train: TrainConfig) -> Fism {
    let cfg = FismConfig {
        train,
        ..Default::default()
    };
    Fism::train(split, &cfg)
}

pub fn train_sasrec(prep: &PreparedData, train: TrainConfig) -> SasRec {
    let cfg = SasRecConfig {
        train,
        max_len: max_len_for(&prep.data),
        ..Default::default()
    };
    SasRec::train(&prep.split, &cfg)
}

/// Train every baseline + UI model on one split.
pub fn train_suite(prep: &PreparedData, h: &HarnessConfig) -> ModelSuite {
    let split = &prep.split;
    let n_items = split.n_items();
    let train_seqs: Vec<Vec<u32>> = (0..split.n_users() as u32)
        .map(|u| split.train_seq(u).to_vec())
        .collect();
    ModelSuite {
        pop: Pop::fit_sequences(n_items, train_seqs.iter().cloned()),
        itemknn: ItemKnn::fit(n_items, &train_seqs, 200),
        userknn: UserKnn::fit(n_items, &train_seqs, h.beta, UserSim::Cosine),
        fism: train_fism(split, train_config(h)),
        sasrec: train_sasrec(prep, train_config(h)),
    }
}

/// BPR-MF is trained separately (it is by far the cheapest and some
/// experiments skip it).
pub fn train_bprmf(prep: &PreparedData, h: &HarnessConfig) -> sccf_models::BprMf {
    let train = TrainConfig {
        epochs: epochs_for(h.scale) * 2,
        ..train_config(h)
    };
    sccf_models::BprMf::train(&prep.split, &train)
}

/// The framework configuration every experiment starts from: the
/// paper's 15-item neighbor-visible window (§IV-A.4), the default
/// integrator seeded from the run, exact UI retrieval, flat frozen tier.
/// Callers then override single fields.
pub fn sccf_config(beta: usize, candidate_n: usize, seed: u64, threads: usize) -> SccfConfig {
    SccfConfig {
        user_based: UserBasedConfig {
            beta,
            recent_window: 15,
        },
        candidate_n,
        integrator: IntegratorConfig {
            seed,
            ..Default::default()
        },
        threads,
        ui_ann: None,
        frozen_tier: FrozenTierMode::Flat,
    }
}

/// Standard SCCF assembly for a trained inductive model.
pub fn build_sccf<M: InductiveUiModel>(
    model: M,
    split: &LeaveOneOut,
    h: &HarnessConfig,
) -> Sccf<M> {
    let candidate_n = *h.ks.iter().max().unwrap_or(&100);
    let mut cfg = sccf_config(h.beta, candidate_n, h.seed, h.threads);
    cfg.integrator.verbose = h.verbose;
    let mut sccf = Sccf::build(model, split, cfg);
    sccf.refresh_for_test(split);
    sccf
}

/// Sizes of one synthetic serving world: the population the generator
/// draws (an `ml1m-sim` variant) and the FISM backend trained on it.
pub struct WorldShape {
    pub n_users: usize,
    pub n_items: usize,
    pub n_categories: usize,
    pub mean_len: f64,
    pub min_len: usize,
    /// FISM embedding dimension.
    pub dim: usize,
    /// FISM training epochs.
    pub epochs: usize,
}

/// What the serving benches and the chaos harness all start from.
pub struct ServingWorld {
    pub split: LeaveOneOut,
    /// Train + validation history per user: the engines' initial state.
    pub histories: Vec<Vec<u32>>,
    /// Needed to rehydrate `fism.save_bytes()` into a second model.
    pub fism_cfg: FismConfig,
    pub fism: Fism,
}

/// Generate → split → histories → train FISM, once. No 5-core filter:
/// it would collapse the long tail and shrink the population the
/// caller is explicitly sizing.
pub fn serving_world(shape: &WorldShape, seed: u64) -> ServingWorld {
    let cfg = SyntheticConfig {
        n_users: shape.n_users,
        n_items: shape.n_items,
        n_categories: shape.n_categories,
        mean_len: shape.mean_len,
        min_len: shape.min_len,
        ..sccf_data::catalog::ml1m_sim(Scale::Quick)
    };
    let split = LeaveOneOut::split(&generate(&cfg, seed).dataset);
    let histories = (0..split.n_users() as u32)
        .map(|u| split.train_plus_val(u))
        .collect();
    let fism_cfg = FismConfig {
        train: TrainConfig {
            dim: shape.dim,
            epochs: shape.epochs,
            seed,
            ..Default::default()
        },
        ..Default::default()
    };
    let fism = Fism::train(&split, &fism_cfg);
    ServingWorld {
        split,
        histories,
        fism_cfg,
        fism,
    }
}

/// The serving benches' framework configuration: β = 100, 100
/// candidates, a 2-epoch integrator.
pub fn serving_sccf_config(threads: usize, seed: u64) -> SccfConfig {
    let mut cfg = sccf_config(100, 100, seed, threads);
    cfg.integrator.epochs = 2;
    cfg
}

/// Event `k` of the deterministic stream the serving benches ingest:
/// strides coprime to typical sizes, so it touches every user and
/// needs no rng.
pub fn event_at(k: usize, n_users: usize, n_items: usize) -> (u32, u32) {
    let k = k as u32;
    (
        k.wrapping_mul(131) % n_users as u32,
        k.wrapping_mul(7919).wrapping_add(13) % n_items as u32,
    )
}

/// Evaluate one scorer on the test target.
pub fn eval_test<S: Scorer + ?Sized>(
    scorer: &S,
    split: &LeaveOneOut,
    h: &HarnessConfig,
    model: &str,
    dataset: &str,
) -> EvalResult {
    evaluate(
        scorer,
        split,
        EvalTarget::Test,
        &h.ks,
        h.threads,
        model,
        dataset,
    )
}

/// Relative improvement `(b − a) / a`, guarding zero denominators.
pub fn improvement(a: f64, b: f64) -> f64 {
    if a.abs() < 1e-12 {
        0.0
    } else {
        (b - a) / a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sccf_data::catalog::ml1m_sim;

    fn tiny_cfg() -> SyntheticConfig {
        SyntheticConfig {
            n_users: 60,
            n_items: 80,
            mean_len: 14.0,
            ..ml1m_sim(Scale::Quick)
        }
    }

    #[test]
    fn prepare_produces_consistent_split() {
        let prep = prepare(&tiny_cfg(), 1);
        assert_eq!(prep.split.n_users(), prep.data.n_users());
        assert!(prep.data.n_actions() > 0);
        assert!(!prep.split.test_users().is_empty());
    }

    #[test]
    fn suite_trains_and_evaluates_end_to_end() {
        let prep = prepare(&tiny_cfg(), 2);
        let h = HarnessConfig {
            dim: 8,
            beta: 10,
            ks: vec![5, 10],
            threads: 2,
            ..Default::default()
        };
        let suite = train_suite(&prep, &h);
        let pop = eval_test(&suite.pop, &prep.split, &h, "Pop", "tiny");
        let fism = eval_test(&suite.fism, &prep.split, &h, "FISM", "tiny");
        assert!(pop.metrics.n_users() > 0);
        assert!(fism.metrics.hr(10) >= 0.0);
        // a trained personalized model should not lose to Pop badly on
        // group-structured data
        assert!(fism.metrics.hr(10) >= pop.metrics.hr(10) * 0.5);
    }

    #[test]
    fn improvement_math() {
        assert!((improvement(0.2, 0.25) - 0.25).abs() < 1e-12);
        assert_eq!(improvement(0.0, 0.5), 0.0);
        assert!(improvement(0.4, 0.2) < 0.0);
    }

    #[test]
    fn max_len_tracks_density() {
        let prep = prepare(&tiny_cfg(), 3);
        let ml = max_len_for(&prep.data);
        assert!(ml == 20 || ml == 50);
    }
}
