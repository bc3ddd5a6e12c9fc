//! # sccf-models
//!
//! Every recommendation model of the paper's evaluation (Table II):
//!
//! | Model | Type | Trait |
//! |---|---|---|
//! | [`Pop`] | popularity | `Recommender` |
//! | [`ItemKnn`] | memory-based item CF | `Recommender` |
//! | [`UserKnn`] | memory-based user CF (transductive) | `Recommender` |
//! | [`BprMf`] | MF + BPR loss (transductive) | `Recommender` |
//! | [`Fism`] | pooled item-similarity factors (Eq. 1) | `InductiveUiModel` |
//! | [`SasRec`] | Transformer encoder (Eq. 2–8) | `InductiveUiModel` |
//! | [`AvgPoolDnn`] | YouTube-DNN-like (A/B baseline, §IV-F) | `InductiveUiModel` |
//!
//! Beyond Table II, the related-work section's model families (§II) are
//! implemented as extended baselines:
//!
//! | Model | Type | Trait |
//! |---|---|---|
//! | [`Gru4Rec`] | recurrent sequence model (ref \[43\]) | `InductiveUiModel` |
//! | [`Caser`] | convolutional sequence model (ref \[45\]) | `InductiveUiModel` |
//! | [`Slim`] | learned item-item linear model (ref \[14\]) | `Recommender` |
//! | [`LRec`] | learned user-user linear model (ref \[18\]) | `Recommender` |
//!
//! The inductive models are the ones the SCCF framework (in `sccf-core`)
//! can wrap: their user representations are inferred from the history, so
//! real-time neighborhoods stay fresh without retraining. They ship as
//! one checksummed model file, [`envelope`] (`SCCFMDL2`): the CLI and
//! every fleet member read the same format.

pub mod avgpool;
pub mod bprmf;
pub mod caser;
pub mod envelope;
pub mod fism;
pub mod gru4rec;
pub mod itemknn;
pub mod linear;
pub mod pop;
pub mod sasrec;
pub mod trainer;
pub mod traits;
pub mod userknn;

pub use avgpool::{AvgPoolConfig, AvgPoolDnn};
pub use bprmf::BprMf;
pub use caser::{Caser, CaserConfig};
pub use envelope::{AnyModel, Envelope, EnvelopeError, ModelHeader, ModelKind};
pub use fism::{Fism, FismConfig};
pub use gru4rec::{Gru4Rec, Gru4RecConfig};
pub use itemknn::ItemKnn;
pub use linear::{LRec, LinearCfConfig, Slim};
pub use pop::Pop;
pub use sasrec::{SasRec, SasRecConfig};
pub use trainer::TrainConfig;
pub use traits::{InductiveUiModel, Recommender};
pub use userknn::{UserKnn, UserSim};
