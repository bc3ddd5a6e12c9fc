//! The fleet's shared world: a deterministic recipe every process in a
//! fleet builds **identically** from the same [`WorldSpec`].
//!
//! The item-side half of an SCCF engine (the trained UI model, the
//! integrator, the candidate index) is read-only at serving time and
//! must be byte-identical in every shard-server process and in the
//! router's reference engine — otherwise "the fleet is bit-identical to
//! one process" is unfalsifiable. Rather than shipping megabytes of
//! floats over the wire at startup, each process rebuilds the world
//! from the spec (synthetic dataset → leave-one-out split → FISM →
//! `Sccf::build`, all seeded, all single-threaded).
//!
//! The one step worth sharing as bytes is model training (it is the
//! slow part): [`WorldSpec::train_model`] once in the launcher, write
//! the bytes to a file, and pass `--model-file` to every shard server —
//! [`WorldSpec::build`] then rehydrates the identical floats via
//! `Fism::load_bytes` instead of retraining. Training is deterministic
//! too, so this is an optimization, not a correctness requirement.

use sccf_core::{FrozenTierMode, IntegratorConfig, Sccf, SccfConfig, UserBasedConfig};
use sccf_data::catalog::{ml1m_sim, Scale};
use sccf_data::synthetic::generate;
use sccf_data::LeaveOneOut;
use sccf_models::{Fism, FismConfig, TrainConfig};
use sccf_util::flags::parse_or;

/// Everything needed to rebuild the fleet's world from scratch. All
/// fields feed seeded, single-threaded constructions, so two processes
/// holding equal specs hold bit-identical worlds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorldSpec {
    /// Synthetic population size.
    pub n_users: usize,
    /// Synthetic catalog size.
    pub n_items: usize,
    /// Generator + training seed.
    pub seed: u64,
    /// Embedding dimension of the FISM model.
    pub dim: usize,
    /// FISM training epochs.
    pub epochs: usize,
    /// Neighborhood size β (Eq. 11).
    pub beta: usize,
    /// Recency window for the user-based component.
    pub recent_window: usize,
    /// Candidate pool size fed to the integrator.
    pub candidate_n: usize,
}

impl Default for WorldSpec {
    fn default() -> Self {
        Self {
            n_users: 120,
            n_items: 60,
            seed: 2026,
            dim: 8,
            epochs: 2,
            beta: 8,
            recent_window: 5,
            candidate_n: 12,
        }
    }
}

/// A built world: the framework plus the serving-side source of truth.
pub struct World {
    pub sccf: Sccf<Fism>,
    /// `train_plus_val` per user — the history table every engine
    /// constructor takes.
    pub histories: Vec<Vec<u32>>,
    pub n_users: usize,
    pub n_items: usize,
}

impl WorldSpec {
    fn fism_config(&self) -> FismConfig {
        FismConfig {
            train: TrainConfig {
                dim: self.dim,
                epochs: self.epochs,
                seed: self.seed,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    fn split(&self) -> LeaveOneOut {
        let mut cfg = ml1m_sim(Scale::Quick);
        cfg.name = "fleet".to_string();
        cfg.n_users = self.n_users;
        cfg.n_items = self.n_items;
        cfg.n_categories = 4;
        cfg.mean_len = 8.0;
        cfg.min_len = 4;
        let data = generate(&cfg, self.seed).dataset;
        LeaveOneOut::split(&data)
    }

    /// Train the spec's FISM model and return its weight bytes — do
    /// this once in the fleet launcher and hand the file to every
    /// shard server so none of them pays the training cost.
    pub fn train_model(&self) -> Vec<u8> {
        Fism::train(&self.split(), &self.fism_config()).save_bytes()
    }

    /// Build the world. With `model_bytes` the model is rehydrated
    /// (fast path); without, it is trained in place — both yield the
    /// same floats.
    pub fn build(&self, model_bytes: Option<&[u8]>) -> Result<World, String> {
        let split = self.split();
        let cfg = self.fism_config();
        let fism = match model_bytes {
            Some(bytes) => Fism::load_bytes(split.n_items(), &cfg, bytes)
                .map_err(|e| format!("model bytes do not match the world spec: {e:?}"))?,
            None => Fism::train(&split, &cfg),
        };
        let mut sccf = Sccf::build(
            fism,
            &split,
            SccfConfig {
                user_based: UserBasedConfig {
                    beta: self.beta,
                    recent_window: self.recent_window,
                },
                candidate_n: self.candidate_n,
                integrator: IntegratorConfig {
                    epochs: 2,
                    seed: 7,
                    ..Default::default()
                },
                threads: 1,
                ui_ann: None,
                frozen_tier: FrozenTierMode::Flat,
            },
        );
        sccf.refresh_for_test(&split);
        let histories: Vec<Vec<u32>> = (0..split.n_users() as u32)
            .map(|u| split.train_plus_val(u))
            .collect();
        Ok(World {
            n_users: split.n_users(),
            n_items: split.n_items(),
            sccf,
            histories,
        })
    }

    /// Command-line form, consumed by [`WorldSpec::from_flag`] on the
    /// other side of a process spawn.
    pub fn to_args(&self) -> Vec<String> {
        vec![
            "--world-users".into(),
            self.n_users.to_string(),
            "--world-items".into(),
            self.n_items.to_string(),
            "--world-seed".into(),
            self.seed.to_string(),
            "--world-dim".into(),
            self.dim.to_string(),
            "--world-epochs".into(),
            self.epochs.to_string(),
            "--world-beta".into(),
            self.beta.to_string(),
            "--world-recent".into(),
            self.recent_window.to_string(),
            "--world-candidates".into(),
            self.candidate_n.to_string(),
        ]
    }

    /// Rebuild a spec from a flag lookup (`flag name without "--"` →
    /// value), defaulting each missing flag. Errors on unparsable
    /// values.
    pub fn from_flag(get: impl Fn(&str) -> Option<String>) -> Result<Self, String> {
        fn parse<T: std::str::FromStr>(
            get: &impl Fn(&str) -> Option<String>,
            key: &str,
            default: T,
        ) -> Result<T, String> {
            parse_or(get(key).as_deref(), key, default)
        }
        let d = WorldSpec::default();
        Ok(Self {
            n_users: parse(&get, "world-users", d.n_users)?,
            n_items: parse(&get, "world-items", d.n_items)?,
            seed: parse(&get, "world-seed", d.seed)?,
            dim: parse(&get, "world-dim", d.dim)?,
            epochs: parse(&get, "world-epochs", d.epochs)?,
            beta: parse(&get, "world-beta", d.beta)?,
            recent_window: parse(&get, "world-recent", d.recent_window)?,
            candidate_n: parse(&get, "world-candidates", d.candidate_n)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_roundtrips_through_args() {
        let spec = WorldSpec {
            n_users: 99,
            seed: 7,
            ..WorldSpec::default()
        };
        let args = spec.to_args();
        let lookup = |key: &str| {
            args.windows(2)
                .find(|w| w[0] == format!("--{key}"))
                .map(|w| w[1].clone())
        };
        assert_eq!(WorldSpec::from_flag(lookup).unwrap(), spec);
        assert_eq!(
            WorldSpec::from_flag(|_| None).unwrap(),
            WorldSpec::default()
        );
    }

    #[test]
    fn trained_bytes_rehydrate_the_same_world() {
        let spec = WorldSpec {
            n_users: 24,
            n_items: 16,
            epochs: 1,
            ..WorldSpec::default()
        };
        let bytes = spec.train_model();
        let a = spec.build(Some(&bytes)).unwrap();
        let b = spec.build(Some(&bytes)).unwrap();
        assert_eq!(a.n_users, 24);
        assert_eq!(a.histories, b.histories);
        // Identical worlds produce identical slates.
        let ra = a.sccf.recommend(0, &a.histories[0], 5);
        let rb = b.sccf.recommend(0, &b.histories[0], 5);
        let bits = |v: &[sccf_util::topk::Scored]| {
            v.iter()
                .map(|s| (s.id, s.score.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(&ra), bits(&rb));
    }
}
