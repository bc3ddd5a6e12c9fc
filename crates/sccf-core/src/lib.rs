//! # sccf-core
//!
//! The paper's primary contribution: **Self-Complementary Collaborative
//! Filtering** (Xie et al., ICDE 2021) — real-time fusion of global
//! user–item retrieval with local user-neighborhood evidence.
//!
//! Where the paper's equations live:
//!
//! * **Eq. 10** (global UI preference `r̂ᵁᴵ = m_u · q_i`) — scored by
//!   [`sccf_models::InductiveUiModel::score_by_rep_into`]; the top-N
//!   retrieval over it (exact dense scan, or HNSW via
//!   [`SccfConfig::ui_ann`]) is assembled in [`framework`].
//! * **Eq. 11** (the β-neighborhood by cosine over user
//!   representations) — served by vector search in [`Sccf::neighbors`].
//! * **Eq. 12** (neighborhood voting `r̂ᵁᵁ = Σ sim(u,v)·δ_vi`) —
//!   [`UserBasedComponent::scores_into`] in [`user_component`].
//! * **Eq. 15–17** (score normalization + fusion MLP) — [`integrator`].
//!
//! Modules:
//!
//! * [`user_component`] — Eq. 11–12: the parameter-free user-based scorer
//!   over a real-time neighborhood.
//! * [`integrator`] — Eq. 15–17: the per-user-normalized fusion MLP over
//!   the candidate union.
//! * [`framework`] — [`Sccf`]: wires any
//!   [`sccf_models::InductiveUiModel`] to a cosine user index, the
//!   user-based component, and the integrator; implements `Recommender`
//!   so the standard protocol can evaluate it (Table II). Internally
//!   split into an immutable item-side half ([`SccfShared`], shared
//!   behind `Arc`) and the per-user half serving mutates —
//!   [`Sccf::into_shards`] partitions the latter across workers for the
//!   sharded engine (`sccf_serving::sharded`, `docs/ARCHITECTURE.md`).
//! * [`neighbor`] — the frozen, `Arc`-shareable
//!   [`GlobalNeighborSnapshot`] behind two-tier cross-shard
//!   neighborhoods (shard-local fresh delta ∪ epoch-swapped global
//!   index), and the one check that it fits an engine.
//! * [`realtime`] — [`RealtimeEngine`]: the single-writer event loop
//!   with the Table III infer/identify timing split.
//! * [`ranking`] — [`RankingStage`]: the paper's §V direction of
//!   applying the fused UI+UU evidence to an upstream generator's
//!   candidates in the ranking step.
//! * [`analysis`] — the Figure 4 similarity-distribution computation.
//!
//! ## The zero-allocation hot-path contract
//!
//! The paper's pitch is that serving cost is bounded by the
//! *neighborhood*, never the *catalog*. This crate enforces that as an
//! API contract:
//!
//! * Steady-state [`RealtimeEngine::apply_event`] (the write path:
//!   infer + index row, no neighbor search) and
//!   [`RealtimeEngine::recommend_query`] (which identifies) perform
//!   **no heap allocation proportional to `n_items`** or to the
//!   population — `tests/alloc.rs` counts them. All catalog-sized
//!   state lives in a [`QueryScratch`] allocated once (per engine, or
//!   per serving thread via [`Sccf::new_scratch`]) and reset in O(1) by
//!   epoch stamps (`sccf_util::sparse`), not by re-zeroing.
//! * Eq. 12 aggregates **sparsely**: [`UserBasedComponent::scores_into`]
//!   touches `β × recent_window` accumulator slots; recent items live in
//!   fixed-capacity ring buffers, so `record` is O(1).
//! * Small allocations that scale with the *request* (a top-N result
//!   vector, a β-sized neighbor list, one `dim`-sized representation)
//!   are allowed — they are catalog-independent.
//!
//! Where dense paths remain, and why:
//!
//! * Exact Eq. 10 retrieval (`ui_ann: None`, the default) still *reads*
//!   all `n_items` scores — a dense scan into the reused scratch buffer.
//!   That is the paper's exact formulation; it allocates nothing but its
//!   compute is O(catalog). Setting [`SccfConfig::ui_ann`] serves UI
//!   candidates from an HNSW item index instead, making the whole
//!   per-event path sublinear (approximate retrieval; equivalence tests
//!   pin the default path).
//! * The scratch-free signatures (`scores`, `candidates`,
//!   `candidate_features`, `recommend`, `features_for`) are
//!   compatibility wrappers that allocate a scratch per call for
//!   offline/one-shot use; they produce bit-identical results to their
//!   `_with`/`_into`/`_sparse` counterparts (enforced by
//!   `tests/properties.rs`).

pub mod analysis;
pub mod framework;
pub mod integrator;
pub mod neighbor;
pub mod ranking;
pub mod realtime;
pub mod user_component;

pub use framework::{
    Admission, CandidateSource, Exclusion, QueryError, QueryScratch, Sccf, SccfConfig, SccfShared,
    TIER_BUILD_SEED,
};
pub use integrator::{CandidateFeatures, Integrator, IntegratorConfig};
pub use neighbor::{GlobalNeighborSnapshot, TierDecodeError, TierMismatch};
pub use ranking::RankingStage;
pub use realtime::{
    decode_histories, decode_user_state, encode_histories, encode_user_state, EngineTimings,
    EventTiming, RealtimeEngine, SnapshotDecodeError,
};
pub use sccf_index::{FrozenTierMode, TierScratch};
pub use user_component::{UserBasedComponent, UserBasedConfig, UuScratch};
