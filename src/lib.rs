//! # sccf
//!
//! A production-quality Rust reproduction of **"Explore User Neighborhood
//! for Real-time E-commerce Recommendation"** (Xie, Sun, Yang, Yang, Gao,
//! Ou, Cui — ICDE 2021): the **Self-Complementary Collaborative
//! Filtering (SCCF)** framework, every substrate it depends on, and a
//! harness regenerating each table and figure of the paper's evaluation.
//!
//! The package also ships the `sccf` command-line binary
//! (`gen`/`train`/`eval`/`recommend`/`serve-shard`/`route`);
//! see the repository README for the full map and `docs/ARCHITECTURE.md`
//! for the serving-path event flow and sharding design.
//!
//! This facade crate re-exports the workspace:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`tensor`] | `sccf-tensor` | matrices, autodiff, NN layers, Adam |
//! | [`data`] | `sccf-data` | datasets, splits, synthetic generators |
//! | [`index`] | `sccf-index` | flat, HNSW, frozen tier + `FrozenTierMode` acceleration (Faiss role) |
//! | [`models`] | `sccf-models` | Pop, ItemKNN, UserKNN, BPR-MF, FISM, SASRec, AvgPoolDNN, GRU4Rec, Caser, SLIM, LRec |
//! | [`core`] | `sccf-core` | the SCCF framework + real-time engine + §V ranking stage |
//! | [`eval`] | `sccf-eval` | HR/NDCG, leave-one-out protocol |
//! | [`serving`] | `sccf-serving` | the unified `ServingApi`, event replay, sharded multi-writer engine, durability layer, control plane, A/B test simulator |
//! | [`net`] | `sccf-net` | the networked shard fleet: wire protocol, shard server, fleet router, supervisor |
//! | [`util`] | `sccf-util` | hashing, top-k, stats, tables, timers |
//!
//! ## Quickstart
//!
//! ```
//! use sccf::data::catalog::{ml1m_sim, Scale};
//! use sccf::data::synthetic::generate;
//! use sccf::data::LeaveOneOut;
//! use sccf::models::{Fism, FismConfig, TrainConfig, Recommender};
//! use sccf::core::{Sccf, SccfConfig};
//!
//! // 1. data (tiny here; see examples/ for realistic scales)
//! let mut cfg = ml1m_sim(Scale::Quick);
//! cfg.n_users = 80;
//! cfg.n_items = 120;
//! let data = generate(&cfg, 7).dataset;
//! let split = LeaveOneOut::split(&data);
//!
//! // 2. an inductive UI model
//! let fism = Fism::train(&split, &FismConfig {
//!     train: TrainConfig { dim: 16, epochs: 3, ..Default::default() },
//!     ..Default::default()
//! });
//!
//! // 3. SCCF on top — global + local, real-time ready
//! let mut sccf = Sccf::build(fism, &split, SccfConfig::default());
//! sccf.refresh_for_test(&split);
//! let recs = sccf.recommend(0, split.train_seq(0), 10);
//! assert!(!recs.is_empty());
//!
//! // 4. serve it through the unified API (same calls drive the
//! //    sharded engine — see `sccf::serving::api`)
//! use sccf::core::RealtimeEngine;
//! use sccf::serving::{RecQuery, ServingApi};
//! let histories: Vec<Vec<u32>> = (0..split.n_users() as u32)
//!     .map(|u| split.train_plus_val(u))
//!     .collect();
//! let mut engine = RealtimeEngine::new(sccf, histories);
//! engine.try_ingest(0, recs[0].id).expect("ids in range");
//! let fresh = engine.try_recommend(0, &RecQuery::top(10)).expect("user 0");
//! assert!(!fresh.items.is_empty());
//! ```

pub use sccf_core as core;
pub use sccf_data as data;
pub use sccf_eval as eval;
pub use sccf_index as index;
pub use sccf_models as models;
pub use sccf_net as net;
pub use sccf_serving as serving;
pub use sccf_tensor as tensor;
pub use sccf_util as util;
