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
//! The one step shared as bytes is base-model training: the launcher
//! runs [`WorldSpec::train_model`] once and writes the `SCCFMDL2` model
//! file (`sccf_models::envelope`, checksummed), and every shard server
//! is handed it with `--model-file` — a member never trains the base
//! model. It still trains the integrator in place, inside
//! `Sccf::build`, on every start (seeded, so every process gets the
//! same weights).
//! [`WorldSpec::build`] checks the file's header against the spec
//! (kind FISM, `dim`, `n_items`, `seed`; a mismatch names the field)
//! before it allocates anything, then loads the identical floats.

use sccf_core::{FrozenTierMode, IntegratorConfig, Sccf, SccfConfig, UserBasedConfig};
use sccf_data::catalog::{ml1m_sim, Scale};
use sccf_data::synthetic::generate;
use sccf_data::LeaveOneOut;
use sccf_models::{AnyModel, Envelope, Fism, ModelHeader, ModelKind};
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
    /// The model file's header for this world: FISM has no sequence
    /// cap.
    fn model_header(&self) -> ModelHeader {
        ModelHeader {
            kind: ModelKind::Fism,
            dim: self.dim,
            max_len: 0,
            n_items: self.n_items,
            seed: self.seed,
        }
    }

    /// Refuse a model file built for another world, naming the first
    /// header field that differs.
    fn check_header(&self, got: &ModelHeader) -> Result<(), String> {
        let want = self.model_header();
        let fields = [
            (
                "kind",
                format!("{:?}", got.kind),
                format!("{:?}", want.kind),
            ),
            ("dim", got.dim.to_string(), want.dim.to_string()),
            ("n_items", got.n_items.to_string(), want.n_items.to_string()),
            ("seed", got.seed.to_string(), want.seed.to_string()),
        ];
        match fields.into_iter().find(|(_, got, want)| got != want) {
            Some((field, got, want)) => Err(format!(
                "model file does not match the world spec: {field} is {got}, the spec has {want}"
            )),
            None => Ok(()),
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

    /// Train the spec's FISM model and return its `SCCFMDL2` model file
    /// — the launcher does this once and hands the file to every shard
    /// server.
    pub fn train_model(&self) -> Vec<u8> {
        let header = self.model_header();
        let weights = header.train(self.epochs, &self.split()).save_bytes();
        Envelope {
            header,
            weights: &weights,
        }
        .encode()
    }

    /// Build the world from the launcher's model file. `None` trains in
    /// place instead — the reference the file path is pinned equal to;
    /// serving processes always pass the file.
    pub fn build(&self, model_file: Option<&[u8]>) -> Result<World, String> {
        let split = self.split();
        let model = match model_file {
            Some(bytes) => {
                let env = Envelope::decode(bytes).map_err(|e| e.to_string())?;
                self.check_header(&env.header)?;
                env.load().map_err(|e| e.to_string())?
            }
            None => self.model_header().train(self.epochs, &split),
        };
        let AnyModel::Fism(fism) = model else {
            unreachable!("the header check admits FISM only");
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

    fn small() -> WorldSpec {
        WorldSpec {
            n_users: 24,
            n_items: 16,
            epochs: 1,
            ..WorldSpec::default()
        }
    }

    /// Every slate of the world, as `(item, score bits)`.
    fn slate_bits(w: &World) -> Vec<Vec<(u32, u32)>> {
        (0..w.n_users as u32)
            .map(|u| {
                w.sccf
                    .recommend(u, &w.histories[u as usize], 5)
                    .iter()
                    .map(|s| (s.id, s.score.to_bits()))
                    .collect()
            })
            .collect()
    }

    /// The model file rebuilds exactly the world trained in place: the
    /// same model snapshot bytes and the same slate bits.
    #[test]
    fn model_file_world_equals_the_trained_in_place_world() {
        let spec = small();
        let file = spec.train_model();
        assert!(file.starts_with(b"SCCFMDL2"));
        let loaded = spec.build(Some(&file)).unwrap();
        let trained = spec.build(None).unwrap();
        assert_eq!(loaded.n_users, 24);
        assert_eq!(loaded.histories, trained.histories);
        assert_eq!(
            loaded.sccf.model().save_bytes(),
            trained.sccf.model().save_bytes()
        );
        assert_eq!(slate_bits(&loaded), slate_bits(&trained));
    }

    /// Regression: a flipped weight bit used to load as different floats.
    #[test]
    fn a_damaged_model_file_is_a_checksum_error() {
        let spec = small();
        let mut file = spec.train_model();
        let mid = file.len() / 2;
        file[mid] ^= 0x04;
        let err = spec.build(Some(&file)).err().expect("refused");
        assert!(err.contains("checksum"), "{err}");
    }

    /// Regression: a model trained for another world with identical
    /// shapes used to load. Each header field the spec fixes is checked
    /// before the architecture is built, and the error names it.
    #[test]
    fn a_model_for_another_world_is_refused_naming_the_field() {
        let spec = small();
        let other = WorldSpec {
            seed: spec.seed + 1,
            ..spec.clone()
        };
        let err = spec
            .build(Some(&other.train_model()))
            .err()
            .expect("refused");
        assert!(err.contains("seed"), "{err}");

        let file = spec.train_model();
        let env = Envelope::decode(&file).unwrap();
        let h = env.header;
        for (field, header) in [
            (
                "kind",
                ModelHeader {
                    kind: ModelKind::SasRec,
                    ..h
                },
            ),
            (
                "dim",
                ModelHeader {
                    dim: h.dim / 2,
                    ..h
                },
            ),
            (
                "n_items",
                ModelHeader {
                    n_items: h.n_items / 2,
                    ..h
                },
            ),
        ] {
            let wrong = Envelope {
                header,
                weights: env.weights,
            }
            .encode();
            let err = spec.build(Some(&wrong)).err().expect("refused");
            assert!(err.contains(field), "{field}: {err}");
        }
    }
}
