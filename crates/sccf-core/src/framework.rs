//! The SCCF framework (Figure 2): an inductive UI model, the user-based
//! component riding on its representations, and the integrating MLP.
//!
//! Build pipeline (mirrors §III and §IV-A.4):
//!
//! 1. Infer every user's representation from her *training* history and
//!    load them into a cosine user index (Eq. 11 is served by search).
//! 2. For every user with a validation item, form both candidate lists
//!    (top-N by Eq. 10 and Eq. 12), and train the integrator on the
//!    union with the validation item as the positive (Eq. 17).
//! 3. Before test measurement, refresh representations with validation
//!    items added back ([`Sccf::refresh_for_test`]) — exactly the state a
//!    real-time deployment would be in, since inference is free.
//!
//! The framework implements [`Recommender`], so the standard protocol can
//! score `SCCF`, and exposes UI-only / UU-only scorers for the ablation
//! rows of Table II (`FISMᵁᵁ`, `SASRecᵁᵁ`).
//!
//! ## Serving hot path
//!
//! Every per-request entry point has a `_with` variant threading a
//! reusable [`QueryScratch`] so that steady-state serving performs **no
//! heap allocation proportional to the catalog**: Eq. 12 aggregates
//! sparsely (O(β × window) touched ids), history/union membership uses
//! O(1)-reset stamp sets, and Eq. 10 writes into a reused buffer. The
//! scratch-free signatures are kept for offline/one-shot callers and
//! produce bit-identical results. With
//! [`SccfConfig::ui_ann`] set, UI candidates come from an HNSW index
//! over the item embeddings instead of a full-catalog scan, making
//! candidate assembly sublinear in the catalog (approximate; off by
//! default to preserve the paper's exact Eq. 10 retrieval).

use std::cell::RefCell;
use std::sync::Arc;

use sccf_data::LeaveOneOut;
use sccf_index::{FlatIndex, FrozenTierMode, HnswConfig, HnswIndex, Metric, TierScratch};
use sccf_models::{InductiveUiModel, Recommender};
use sccf_util::sparse::StampSet;
use sccf_util::timer::Stopwatch;
use sccf_util::topk::Scored;

use crate::integrator::{CandidateFeatures, Integrator, IntegratorConfig};
use crate::neighbor::GlobalNeighborSnapshot;
use crate::realtime::EventTiming;
use crate::user_component::{UserBasedComponent, UserBasedConfig, UuScratch};

/// Which retrieval path serves the UI (Eq. 10) candidate list for one
/// query. Part of the typed request surface (`sccf_serving::api::RecQuery`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CandidateSource {
    /// Whatever the build chose: the HNSW item index when
    /// [`SccfConfig::ui_ann`] was set, the exact dense scan otherwise.
    #[default]
    Configured,
    /// Force the exact dense Eq. 10 scan (always available — the
    /// paper's formulation).
    Exact,
    /// Force the HNSW item index; queries fail with
    /// [`QueryError::AnnUnavailable`] when the instance was built
    /// without [`SccfConfig::ui_ann`].
    Ann,
}

/// Which items one query refuses to recommend.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum Exclusion {
    /// Mask the user's own history `R⁺_u` — the paper's rule (§III-C.1:
    /// never recommend repeats) and the default everywhere.
    #[default]
    History,
    /// The history plus caller-supplied item ids (business rules:
    /// out-of-stock, already purchased elsewhere, editorial blocks).
    HistoryAnd(Vec<u32>),
    /// No mask at all: every catalog item may appear, repeats included
    /// (offline diagnostics; never the production default).
    Nothing,
}

impl Exclusion {
    /// How many ids the mask holds for a given history (sizes the ANN
    /// over-fetch).
    fn masked_len(&self, history: &[u32]) -> usize {
        match self {
            Exclusion::History => history.len(),
            Exclusion::HistoryAnd(extra) => history.len() + extra.len(),
            Exclusion::Nothing => 0,
        }
    }
}

/// Why one typed query could not be served. The serving layer wraps
/// this into `sccf_serving::api::ServingError`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// The user id is outside the indexed population.
    UnknownUser { user: u32, n_users: usize },
    /// An item id (event, or exclusion-list entry) is outside the
    /// catalog.
    UnknownItem { item: u32, n_items: usize },
    /// [`CandidateSource::Ann`] was requested but the instance was built
    /// without [`SccfConfig::ui_ann`].
    AnnUnavailable,
    /// A shard view received a query for a user another shard owns —
    /// the router must only send owned users here.
    NotOwned { user: u32 },
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::UnknownUser { user, n_users } => {
                write!(f, "user {user} outside the population of {n_users}")
            }
            Self::UnknownItem { item, n_items } => {
                write!(f, "item {item} outside the catalog of {n_items}")
            }
            Self::AnnUnavailable => write!(
                f,
                "ANN candidate source requested but the framework was built without `ui_ann`"
            ),
            Self::NotOwned { user } => {
                write!(f, "user {user} is not owned by this shard view")
            }
        }
    }
}

impl std::error::Error for QueryError {}

/// Whether a request may enter at all — the one admission rule every
/// entry point runs (the engine, the sharded engine, the fleet router),
/// so they answer one bad request with one [`QueryError`]. The order is
/// part of the rule: the user's range, then the user's placement, then the
/// item; a query's source, then its excluded ids.
///
/// Placement stays with the caller, as a closure: `None` means the
/// user is not hosted here ([`QueryError::NotOwned`]); `Some` is
/// handed back (a slot, a shard, a member). The closure runs only for
/// in-population users. Nothing here allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Admission {
    /// Population size: user ids are `0..n_users`.
    pub n_users: usize,
    /// Catalog size: item ids are `0..n_items`.
    pub n_items: usize,
    /// An HNSW item index is built ([`SccfConfig::ui_ann`]), so
    /// [`CandidateSource::Ann`] can be served.
    pub ann: bool,
}

impl Admission {
    /// Admit `user`: in the population ([`QueryError::UnknownUser`]),
    /// then placed by `place` ([`QueryError::NotOwned`] on `None`).
    pub fn user<P>(
        &self,
        user: u32,
        place: impl FnOnce(u32) -> Option<P>,
    ) -> Result<P, QueryError> {
        let n_users = self.n_users;
        if user as usize >= n_users {
            return Err(QueryError::UnknownUser { user, n_users });
        }
        place(user).ok_or(QueryError::NotOwned { user })
    }

    /// Admit one item id: in the catalog ([`QueryError::UnknownItem`]).
    pub fn item(&self, item: u32) -> Result<(), QueryError> {
        let n_items = self.n_items;
        if item as usize >= n_items {
            return Err(QueryError::UnknownItem { item, n_items });
        }
        Ok(())
    }

    /// Admit one `(user, item)` event: [`Admission::user`] first, then
    /// the item ([`QueryError::UnknownItem`]).
    pub fn event<P>(
        &self,
        user: u32,
        item: u32,
        place: impl FnOnce(u32) -> Option<P>,
    ) -> Result<P, QueryError> {
        let placed = self.user(user, place)?;
        self.item(item)?;
        Ok(placed)
    }

    /// Admit a query: [`CandidateSource::Ann`] needs the item index
    /// ([`QueryError::AnnUnavailable`]), and every extra excluded id
    /// must be in the catalog.
    pub fn query(&self, source: CandidateSource, exclusion: &Exclusion) -> Result<(), QueryError> {
        if source == CandidateSource::Ann && !self.ann {
            return Err(QueryError::AnnUnavailable);
        }
        if let Exclusion::HistoryAnd(extra) = exclusion {
            extra.iter().try_for_each(|&i| self.item(i))?;
        }
        Ok(())
    }

    /// Admit a whole batch of events before any is applied: the first
    /// failing event's error, or `Ok` for all of them.
    pub fn events<P>(
        &self,
        events: &[(u32, u32)],
        place: impl Fn(u32) -> Option<P>,
    ) -> Result<(), QueryError> {
        events
            .iter()
            .try_for_each(|&(user, item)| self.event(user, item, &place).map(drop))
    }

    /// Admit a whole list of users before any is served: the first
    /// failing user's error, or `Ok` for all of them.
    pub fn users<P>(
        &self,
        users: &[u32],
        place: impl Fn(u32) -> Option<P>,
    ) -> Result<(), QueryError> {
        users
            .iter()
            .try_for_each(|&user| self.user(user, &place).map(drop))
    }
}

/// Framework hyper-parameters.
#[derive(Debug, Clone)]
pub struct SccfConfig {
    /// Neighborhood size β and the recent-item window.
    pub user_based: UserBasedConfig,
    /// Candidate list length N for *each* of the two lists (the paper
    /// restricts the candidate set per stage; offline it must cover the
    /// largest report cutoff, i.e. ≥ 100).
    pub candidate_n: usize,
    pub integrator: IntegratorConfig,
    /// Threads for the representation pre-computation.
    pub threads: usize,
    /// When set, UI candidate generation (Eq. 10 top-N) is served by an
    /// HNSW index over the item embeddings instead of a dense
    /// full-catalog scan — sublinear in catalog size but approximate.
    /// `None` (the default) keeps the exact scan, so recommendations
    /// match the paper's formulation bit-for-bit.
    pub ui_ann: Option<HnswConfig>,
    /// How the frozen *global user tier* is searched
    /// ([`crate::GlobalNeighborSnapshot`]): [`FrozenTierMode::Flat`]
    /// (the default) is the exact O(population) scan;
    /// [`FrozenTierMode::Hnsw`] builds a graph at refresh time and
    /// re-ranks its candidates against the exact frozen vectors, so an
    /// exhaustive beam reproduces the flat scan bit-for-bit and
    /// anything less is a measured recall trade
    /// (`docs/OPERATIONS.md` has the tuning runbook).
    pub frozen_tier: FrozenTierMode,
}

/// The seed every frozen-tier acceleration build runs under: HNSW
/// level sampling derives from it, so rebuilding a snapshot from
/// identical exports is byte-identical — the same determinism
/// discipline as the engine's own RNG plumbing.
pub const TIER_BUILD_SEED: u64 = 0x5CCF_71E2;

impl Default for SccfConfig {
    fn default() -> Self {
        Self {
            user_based: UserBasedConfig::default(),
            candidate_n: 100,
            integrator: IntegratorConfig::default(),
            threads: 4,
            ui_ann: None,
            frozen_tier: FrozenTierMode::Flat,
        }
    }
}

/// Reusable per-query buffers for the serving hot path. All members are
/// allocated once (sized by the catalog) and reset in O(1) per use;
/// steady-state queries through the `_with` entry points never allocate
/// catalog-sized memory.
#[derive(Debug)]
pub struct QueryScratch {
    /// Sparse Eq. 12 accumulator + per-neighbor window dedup.
    uu: UuScratch,
    /// Dense Eq. 10 score buffer (exact-UI mode only).
    ui_scores: Vec<f32>,
    /// Membership of the user's history (mask `R⁺_u`).
    hist: StampSet,
    /// Candidate-union dedup.
    seen: StampSet,
    /// Assembled candidate features; vectors keep their capacity across
    /// queries.
    cand: CandidateFeatures,
    /// Two-tier Eq. 11 merge buffer: local-delta hits, then frozen
    /// global-tier hits, re-ranked in place. β-sized; capacity retained
    /// across queries.
    merged: Vec<Scored>,
    /// User-id dedup for the two-tier merge: the fresh local tier's
    /// users are stamped so the frozen tier never resurfaces a stale
    /// vector for them. Population-sized, O(1) reset; grown on first
    /// use when a scratch sized for a smaller population serves a
    /// larger one.
    users_seen: StampSet,
    /// Candidate / rerank buffers for an accelerated frozen tier
    /// (HNSW beam state, bounded top-k). Unused — and empty — under
    /// [`FrozenTierMode::Flat`]; the UI-side HNSW item search reuses
    /// its beam state.
    tier: TierScratch,
    /// UI-side ANN result buffer (`ui_ann` mode); capacity retained.
    ann_hits: Vec<Scored>,
}

impl QueryScratch {
    /// Scratch for a catalog of `n_items` and a population of
    /// `n_users` — sizes the two-tier merge structures up front so the
    /// steady state performs no population-proportional allocation.
    fn for_population(n_items: usize, n_users: usize) -> Self {
        Self {
            uu: UuScratch::new(n_items),
            ui_scores: vec![0.0; n_items],
            hist: StampSet::new(n_items),
            seen: StampSet::new(n_items),
            cand: CandidateFeatures::default(),
            merged: Vec::new(),
            users_seen: StampSet::new(n_users),
            tier: TierScratch::new(),
            ann_hits: Vec::new(),
        }
    }

    /// The most recently assembled candidate features.
    pub fn candidates(&self) -> &CandidateFeatures {
        &self.cand
    }

    /// The catalog size this scratch was allocated for.
    pub fn n_items(&self) -> usize {
        self.ui_scores.len()
    }

    /// Reset for a new query: load the history mask, empty the union
    /// dedup set, and clear the candidate vectors (capacity retained).
    fn reset_for(&mut self, history: &[u32]) {
        self.reset_excluding(history, &Exclusion::History);
    }

    /// Reset for a new query under an explicit [`Exclusion`] policy: the
    /// `hist` stamp set becomes the *mask* (history, history + extras,
    /// or nothing), the union dedup set empties, and the candidate
    /// vectors clear (capacity retained). Every assembly path goes
    /// through this one helper so a field added to the scratch or to
    /// [`CandidateFeatures`] has a single reset point.
    fn reset_excluding(&mut self, history: &[u32], exclusion: &Exclusion) {
        self.hist.clear();
        match exclusion {
            Exclusion::History => {
                for &i in history {
                    self.hist.insert(i);
                }
            }
            Exclusion::HistoryAnd(extra) => {
                for &i in history.iter().chain(extra) {
                    self.hist.insert(i);
                }
            }
            Exclusion::Nothing => {}
        }
        self.seen.clear();
        self.cand.items.clear();
        self.cand.ui_scores.clear();
        self.cand.uu_scores.clear();
        self.cand.user_rep.clear();
    }
}

/// The item-side, immutable-after-build half of a built SCCF instance:
/// the UI model (with its item-embedding table), the optional HNSW item
/// index, the trained integrator, and the configuration.
///
/// Nothing here is mutated while serving, so one `Arc<SccfShared<M>>`
/// can back any number of user-partitioned [`Sccf`] views (see
/// [`Sccf::into_shards`]) without copies and without synchronization —
/// the sharded realtime engine's workers all read the same tables.
pub struct SccfShared<M: InductiveUiModel> {
    model: M,
    cfg: SccfConfig,
    /// Optional ANN index over item embeddings (sublinear Eq. 10).
    item_index: Option<HnswIndex>,
    integrator: Integrator,
}

impl<M: InductiveUiModel> SccfShared<M> {
    /// The wrapped UI model.
    pub fn model(&self) -> &M {
        &self.model
    }

    pub fn config(&self) -> &SccfConfig {
        &self.cfg
    }

    /// Build an epoch-stamped [`GlobalNeighborSnapshot`] from per-user
    /// export entries `(user, raw representation, full history)` — the
    /// decoded payload of `RealtimeEngine::export_user` blobs. The
    /// history is truncated to the recent window, so the frozen tier
    /// holds exactly the vectors and windows the mutable tiers would
    /// derive from the same state — the bit-identity the
    /// synchronous-refresh equivalence rests on.
    pub fn build_neighbor_snapshot(
        &self,
        epoch: u64,
        n_users: usize,
        entries: impl IntoIterator<Item = (u32, Vec<f32>, Vec<u32>)>,
    ) -> GlobalNeighborSnapshot {
        let w = self.cfg.user_based.recent_window;
        let rows = entries.into_iter().map(|(u, rep, history)| {
            let window = history[history.len().saturating_sub(w)..].to_vec();
            (u, rep, window)
        });
        GlobalNeighborSnapshot::build_with_mode(
            epoch,
            n_users,
            self.model.dim(),
            self.cfg.frozen_tier,
            TIER_BUILD_SEED,
            rows,
        )
    }

    /// Delta sibling of [`SccfShared::build_neighbor_snapshot`]: patch
    /// `prev` with export entries for only the users whose state changed
    /// since it was built (the engines' tier-dirty sets). Entries get
    /// the identical window truncation as the full path, and the
    /// accelerated structure is rebuilt with the same seed, so when the
    /// entries cover every changed user the result is bit-identical to
    /// a full rebuild at the same watermark — pinned by
    /// `tests/serving_api.rs`.
    pub fn build_neighbor_snapshot_delta(
        &self,
        prev: &GlobalNeighborSnapshot,
        epoch: u64,
        entries: impl IntoIterator<Item = (u32, Vec<f32>, Vec<u32>)>,
    ) -> GlobalNeighborSnapshot {
        let w = self.cfg.user_based.recent_window;
        let rows = entries.into_iter().map(|(u, rep, history)| {
            let window = history[history.len().saturating_sub(w)..].to_vec();
            (u, rep, window)
        });
        GlobalNeighborSnapshot::build_delta_with_mode(
            prev,
            epoch,
            self.cfg.frozen_tier,
            TIER_BUILD_SEED,
            rows,
        )
    }
}

/// A built SCCF instance wrapping the inductive UI model `M`.
///
/// Internally split into two halves:
///
/// * `shared` — the item-side state ([`SccfShared`]): model, optional
///   item index, integrator, config. Read-only after build, shareable
///   across threads behind its `Arc`.
/// * per-user state — the cosine user index (Eq. 11) and the
///   user-based component's recent-item rings (Eq. 12 inputs). These
///   are the only parts serving mutates, which is what makes the
///   engine user-partitionable: [`Sccf::into_shards`] hands each shard
///   its own per-user half over the same shared half.
pub struct Sccf<M: InductiveUiModel> {
    shared: Arc<SccfShared<M>>,
    /// Cosine index over current user representations (Eq. 11):
    /// *compact*, one slot per owned user, addressed through `owned`.
    user_index: FlatIndex,
    user_comp: UserBasedComponent,
    /// The users this view owns and their slots. Every `Sccf` is a
    /// view: [`Sccf::build`] owns the whole population in id order,
    /// [`Sccf::into_shards`] a partition of it, [`Sccf::empty_shard_view`]
    /// nobody. Per-event neighbor scans cost O(owned users).
    owned: ShardMap,
    /// Optional frozen *global tier* for two-tier Eq. 11 search
    /// ([`crate::RealtimeEngine::install_global_tier`]): an immutable
    /// whole-population snapshot merged with the mutable index above
    /// (the fresh local delta — its vectors win), so users this view
    /// does not own can be neighbors. `None` (the default, and always
    /// the state right after a build) searches the owned users only.
    global_tier: Option<Arc<GlobalNeighborSnapshot>>,
}

/// Slot ↔ global user-id translation for a view's compact index.
#[derive(Debug, Clone)]
struct ShardMap {
    /// Global user id of each local index slot.
    globals: Vec<u32>,
    /// Local slot of each global user id; `u32::MAX` = not owned here.
    local_of: Vec<u32>,
}

impl ShardMap {
    /// A map over a population of `n_users` whose slot `l` holds
    /// `globals[l]`.
    fn new(n_users: usize, globals: Vec<u32>) -> Self {
        let mut local_of = vec![u32::MAX; n_users];
        for (l, &g) in globals.iter().enumerate() {
            local_of[g as usize] = l as u32;
        }
        Self { globals, local_of }
    }

    /// `user`'s slot; `None` when this view does not own her (ids
    /// outside the population included).
    fn local(&self, user: u32) -> Option<u32> {
        match self.local_of.get(user as usize) {
            None | Some(&u32::MAX) => None,
            Some(&l) => Some(l),
        }
    }
}

/// Compute all user representations, sharded across threads.
fn infer_all_reps<M: InductiveUiModel, H: AsRef<[u32]> + Sync>(
    model: &M,
    histories: &[H],
    threads: usize,
) -> Vec<Vec<f32>> {
    let infer = |h: &H| model.infer_user(h.as_ref());
    if threads <= 1 || histories.len() < 2 * threads {
        return histories.iter().map(infer).collect();
    }
    let chunk = histories.len().div_ceil(threads);
    let mut out: Vec<Vec<Vec<f32>>> = Vec::new();
    crossbeam::scope(|scope| {
        let handles: Vec<_> = histories
            .chunks(chunk)
            .map(|shard| scope.spawn(move |_| shard.iter().map(infer).collect()))
            .collect();
        for h in handles {
            out.push(h.join().expect("inference shard panicked"));
        }
    })
    .expect("inference scope failed");
    out.into_iter().flatten().collect()
}

impl<M: InductiveUiModel> Sccf<M> {
    /// Build the framework: index training-time representations and train
    /// the integrator on validation labels. The result is the view that
    /// owns every user, in id order.
    pub fn build(model: M, split: &LeaveOneOut, cfg: SccfConfig) -> Self {
        let n_users = split.n_users();
        let n_items = split.n_items();
        let train_histories: Vec<Vec<u32>> = (0..n_users as u32)
            .map(|u| split.train_seq(u).to_vec())
            .collect();
        let reps = infer_all_reps(&model, &train_histories, cfg.threads);
        let dim = model.dim();
        let mut user_index = FlatIndex::new(dim);
        for rep in &reps {
            user_index.add(rep);
        }
        let item_index = cfg.ui_ann.as_ref().map(|hnsw_cfg| {
            let table = model.item_embeddings();
            let mut idx = HnswIndex::new(dim, Metric::InnerProduct, hnsw_cfg.clone());
            for i in 0..table.rows() {
                idx.add(table.row(i));
            }
            idx
        });
        let user_comp = UserBasedComponent::new(
            cfg.user_based.clone(),
            n_items,
            train_histories.iter().cloned(),
        );
        let integrator = Integrator::new(dim, cfg.integrator.clone());
        let mut sccf = Self {
            shared: Arc::new(SccfShared {
                model,
                cfg,
                item_index,
                integrator,
            }),
            user_index,
            user_comp,
            owned: ShardMap::new(n_users, (0..n_users as u32).collect()),
            global_tier: None,
        };

        // ---- integrator training set (Eq. 17) ----
        // One scratch serves the whole loop; each user's features are
        // cloned out of it into the example set.
        let mut scratch = sccf.new_scratch();
        let item_index = sccf.shared.item_index.as_ref();
        let mut examples: Vec<(CandidateFeatures, u32)> = Vec::new();
        for u in split.val_users() {
            let val = split.val_item(u).expect("val user");
            sccf.candidates_into(
                u,
                &reps[u as usize],
                &train_histories[u as usize],
                item_index,
                &Exclusion::History,
                &mut scratch,
            );
            if !scratch.cand.is_empty() {
                examples.push((scratch.cand.clone(), val));
            }
        }
        let shared = Arc::get_mut(&mut sccf.shared).expect("a fresh build owns its shared half");
        shared
            .integrator
            .train(&examples, shared.model.item_embeddings());
        sccf
    }

    /// Advance every user's state from `train` to `train + val` — the
    /// real-time refresh before test measurement (§IV-A.4: "we add all
    /// validation items and users back").
    pub fn refresh_for_test(&mut self, split: &LeaveOneOut) {
        let histories: Vec<Vec<u32>> = (0..split.n_users() as u32)
            .map(|u| split.train_plus_val(u))
            .collect();
        self.derive_user_state(&histories);
    }

    /// Re-derive every owned user's index row (the representation
    /// inferred from her history) and recent-item ring from
    /// whole-population `histories`, indexed by global user id — the
    /// one derive loop behind [`Sccf::refresh_for_test`] and
    /// [`crate::RealtimeEngine::restore`]. Only owned users are
    /// inferred; the rest of `histories` is not read.
    pub(crate) fn derive_user_state(&mut self, histories: &[Vec<u32>]) {
        let owned: Vec<&[u32]> = self
            .owned_globals()
            .iter()
            .map(|&g| &histories[g as usize][..])
            .collect();
        let reps = infer_all_reps(self.model(), &owned, self.config().threads);
        for (slot, (history, rep)) in owned.iter().zip(&reps).enumerate() {
            self.user_index.update(slot as u32, rep);
            self.user_comp.reset_user(slot as u32, history);
        }
    }

    /// The index row of the user in `slot`: the representation
    /// `infer_user` returned for her current history, stored verbatim
    /// by every write ([`FlatIndex::add`] / [`FlatIndex::update`]) — so
    /// the realtime engine reads `m_u` here instead of inferring again.
    pub(crate) fn user_row(&self, slot: usize) -> &[f32] {
        self.user_index.vector(slot as u32)
    }

    /// The vector stored in / queried against the user index for `user`:
    /// the representation itself — index space *is* representation
    /// space (Eq. 11). Kept for callers that probe a tier directly.
    pub fn index_vector<'a>(&self, _user: u32, rep: &'a [f32]) -> &'a [f32] {
        rep
    }

    /// The wrapped UI model.
    pub fn model(&self) -> &M {
        &self.shared.model
    }

    /// The item-side half backing this view. Shard views created by
    /// [`Sccf::into_shards`] return clones of the same `Arc`.
    pub fn shared(&self) -> &Arc<SccfShared<M>> {
        &self.shared
    }

    /// Install a frozen global neighbor tier: subsequent Eq. 11 queries
    /// merge it with the live local index (see [`crate::neighbor`] for
    /// the two-tier contract). The caller has checked it fits
    /// ([`GlobalNeighborSnapshot::check_fits`]).
    pub(crate) fn set_global_tier(&mut self, tier: Arc<GlobalNeighborSnapshot>) {
        self.global_tier = Some(tier);
    }

    /// Remove the global tier: Eq. 11 falls back to the local-only
    /// scan, bit-identical to an instance that never had one.
    pub(crate) fn clear_global_tier(&mut self) {
        self.global_tier = None;
    }

    /// The installed global tier, if any. It supplies the neighbors
    /// this view does not own, so a view that owns everyone never
    /// scans it.
    pub fn global_tier(&self) -> Option<&GlobalNeighborSnapshot> {
        self.global_tier.as_deref()
    }

    /// Unwrap the UI model (hyper-parameter sweeps rebuild SCCF around
    /// one trained model).
    ///
    /// # Panics
    /// If shard views created by [`Sccf::into_shards`] still hold the
    /// shared half — shut the sharded engine down first.
    pub fn into_model(self) -> M {
        match Arc::try_unwrap(self.shared) {
            Ok(shared) => shared.model,
            Err(_) => panic!("into_model: shard views of this Sccf are still alive"),
        }
    }

    pub fn config(&self) -> &SccfConfig {
        &self.shared.cfg
    }

    /// A query scratch sized for this instance's catalog and
    /// population. Allocate once per serving thread and pass to the
    /// `_with` entry points.
    pub fn new_scratch(&self) -> QueryScratch {
        QueryScratch::for_population(self.shared.model.n_items(), self.user_count())
    }

    /// Current neighborhood of a representation (Eq. 11), in *global*
    /// user ids: the view's fresh owned users merged with the frozen
    /// global tier when one is installed
    /// ([`crate::RealtimeEngine::install_global_tier`]), the owned users
    /// only without one.
    /// One-shot form (allocates its merge buffers); the serving path
    /// goes through [`Sccf::neighbors_with`].
    pub fn neighbors(&self, user: u32, rep: &[f32]) -> Vec<Scored> {
        let mut out = Vec::new();
        let mut seen = StampSet::new(0);
        let mut tier = TierScratch::new();
        self.merged_neighbors_into(user, rep, &mut out, &mut seen, &mut tier);
        out
    }

    /// Scratch form of [`Sccf::neighbors`]: the merge buffers live in
    /// the scratch, so the steady state allocates only the returned
    /// β-sized vector — nothing proportional to the catalog or the
    /// population, two-tier or not.
    pub fn neighbors_with(
        &self,
        user: u32,
        rep: &[f32],
        scratch: &mut QueryScratch,
    ) -> Vec<Scored> {
        self.with_neighbors(user, rep, scratch, |neighbors, _| neighbors.to_vec())
    }

    /// The neighbour step of every scratch-path query: run the merged
    /// Eq. 11 search for `user` out of `scratch`, then hand `f` the
    /// neighbourhood *and* the scratch — the buffer is taken out for
    /// the duration so candidate assembly can borrow the rest of the
    /// scratch mutably while reading it, and goes back (capacity
    /// intact) when `f` returns.
    fn with_neighbors<R>(
        &self,
        user: u32,
        rep: &[f32],
        scratch: &mut QueryScratch,
        f: impl FnOnce(&[Scored], &mut QueryScratch) -> R,
    ) -> R {
        let mut neighbors = std::mem::take(&mut scratch.merged);
        self.merged_neighbors_into(
            user,
            rep,
            &mut neighbors,
            &mut scratch.users_seen,
            &mut scratch.tier,
        );
        let result = f(&neighbors, scratch);
        scratch.merged = neighbors;
        result
    }

    /// The merged two-tier Eq. 11 search, in global user ids.
    ///
    /// Local tier first: the mutable index over this view's owned users
    /// (always fresh), the querying user excluded by her own slot.
    /// Global tier second, when installed: the frozen snapshot is
    /// scanned with a skip over the querying user, every locally-owned
    /// user and every id already stamped into `users_seen` from the
    /// local result — so a user's *freshest* vector wins by
    /// construction. The union is re-ranked by the standard [`Scored`]
    /// ordering (score descending, ties by ascending id — the same
    /// total order every index in the workspace sorts by) and truncated
    /// to β. With no tier the local result is returned untouched,
    /// order included.
    fn merged_neighbors_into(
        &self,
        user: u32,
        query: &[f32],
        out: &mut Vec<Scored>,
        users_seen: &mut StampSet,
        tier_scratch: &mut TierScratch,
    ) {
        out.clear();
        let beta = self.shared.cfg.user_based.beta;
        let local = self.user_index.search(query, beta, self.slot_of(user));
        let globals = &self.owned.globals;
        out.extend(local.into_iter().map(|mut h| {
            h.id = globals[h.id as usize];
            h
        }));
        let Some(tier) = &self.global_tier else {
            return;
        };
        // A view that owns everyone has a fresh local tier covering the
        // whole population, so the frozen tier could only append
        // nothing: skip its O(population) scan.
        let n_users = self.user_count();
        if globals.len() < n_users {
            if users_seen.slots() < n_users {
                *users_seen = StampSet::new(n_users);
            }
            users_seen.clear();
            for h in out.iter() {
                users_seen.insert(h.id);
            }
            let seen: &StampSet = users_seen;
            let skip = |v: u32| v == user || seen.contains(v) || self.slot_of(v).is_some();
            tier.search_append_with(query, beta, &skip, tier_scratch, out);
        }
        out.sort_unstable_by(|a, b| b.cmp(a));
        out.truncate(beta);
    }

    /// The slot holding `user`'s per-user state, or `None` when this
    /// view does not own her.
    pub(crate) fn slot_of(&self, user: u32) -> Option<u32> {
        self.owned.local(user)
    }

    /// Global user id of every owned slot, in slot order. The realtime
    /// engine keeps its history table in the same slot order and maps
    /// it through this to whole-population artifacts.
    pub(crate) fn owned_globals(&self) -> &[u32] {
        &self.owned.globals
    }

    /// Eq. 12 over a merged (global-id) neighborhood, into an already
    /// `begin`-free scratch: owned neighbors contribute their *live*
    /// rings, remote neighbors their *frozen* windows from the global
    /// tier — one accumulation pass, same arithmetic and order as the
    /// all-local [`UserBasedComponent::scores_into`] (which this equals
    /// exactly when every neighbor is owned, i.e. whenever no tier is
    /// installed).
    fn fill_uu_scores(&self, neighbors: &[Scored], uu: &mut UuScratch) {
        uu.scores.begin();
        for n in neighbors {
            match self.slot_of(n.id) {
                Some(slot) => self.user_comp.accumulate_into(slot, n.score, uu),
                None => {
                    let window = self
                        .global_tier
                        .as_ref()
                        .map_or(&[][..], |t| t.frozen_window(n.id));
                    uu.accumulate_window(window.iter().copied(), n.score);
                }
            }
        }
    }

    /// Full-catalog UU scores for `user` given a fresh representation.
    /// Dense compatibility path (offline analysis / ablations); merges
    /// the global tier like every other neighborhood query.
    pub fn uu_scores(&self, user: u32, rep: &[f32]) -> Vec<f32> {
        let neighbors = self.neighbors(user, rep);
        let mut scratch = self.user_comp.new_scratch();
        self.fill_uu_scores(&neighbors, &mut scratch);
        scratch.scores.to_dense()
    }

    /// Scorer for the UU-only ablation rows (`FISMᵁᵁ` / `SASRecᵁᵁ`).
    pub fn uu_scorer(&self) -> impl sccf_eval::Scorer + '_ {
        sccf_eval::FnScorer(move |user: u32, history: &[u32]| {
            let rep = self.shared.model.infer_user(history);
            self.uu_scores(user, &rep)
        })
    }

    /// Mutable access used by the realtime engine. Panics if this shard
    /// view does not own the user — the router must only send owned
    /// users here.
    pub(crate) fn record_event(&mut self, user: u32, item: u32, rep: &[f32]) {
        let slot = self
            .slot_of(user)
            .expect("event for a user this shard does not own");
        self.user_index.update(slot, rep);
        self.user_comp.record(slot, item);
    }

    /// Number of users this view knows about: the full population,
    /// whichever subset of it the view owns.
    pub fn user_count(&self) -> usize {
        self.owned.local_of.len()
    }

    /// The admission rule of this view: its population, its catalog
    /// and whether it has an item index to serve
    /// [`CandidateSource::Ann`].
    pub fn admission(&self) -> Admission {
        Admission {
            n_users: self.user_count(),
            n_items: self.shared.model.n_items(),
            ann: self.shared.item_index.is_some(),
        }
    }

    /// The candidate step every slate, feature set and training example
    /// runs: Eq. 11 neighbours of `user` from `rep`, then the Eq. 10 ∪
    /// Eq. 12 candidate union with raw scores into `scratch.cand`.
    fn candidates_into(
        &self,
        user: u32,
        rep: &[f32],
        history: &[u32],
        item_index: Option<&HnswIndex>,
        exclusion: &Exclusion,
        scratch: &mut QueryScratch,
    ) {
        self.with_neighbors(user, rep, scratch, |neighbors, scratch| {
            assemble_candidates_into(
                &self.shared.model,
                item_index,
                rep,
                history,
                self.shared.cfg.candidate_n,
                exclusion,
                scratch,
                |uu| self.fill_uu_scores(neighbors, uu),
            )
        });
    }

    /// Assemble the union candidate set with raw scores into
    /// `scratch.cand` without any catalog-sized allocation. This is the
    /// serving-path form of [`Sccf::candidate_features`].
    pub fn candidate_features_with(&self, user: u32, history: &[u32], scratch: &mut QueryScratch) {
        let rep = self.shared.model.infer_user(history);
        let item_index = self.shared.item_index.as_ref();
        self.candidates_into(
            user,
            &rep,
            history,
            item_index,
            &Exclusion::History,
            scratch,
        );
    }

    /// The union candidate set with raw scores — the integrator's input.
    /// One-shot form: allocates a fresh scratch; per-request callers
    /// should use [`Sccf::candidate_features_with`].
    pub fn candidate_features(&self, user: u32, history: &[u32]) -> CandidateFeatures {
        let mut scratch = self.new_scratch();
        self.candidate_features_with(user, history, &mut scratch);
        scratch.cand
    }

    /// Features for an *externally supplied* candidate list — the ranking
    /// stage (§V future work): instead of forming its own union, SCCF
    /// scores someone else's candidates with both UI and UU evidence.
    /// Duplicates and already-interacted items are dropped. Scratch form:
    /// no catalog-sized allocation.
    pub fn features_for_with(
        &self,
        user: u32,
        history: &[u32],
        items: &[u32],
        scratch: &mut QueryScratch,
    ) {
        let rep = self.shared.model.infer_user(history);
        self.with_neighbors(user, &rep, scratch, |neighbors, scratch| {
            self.fill_uu_scores(neighbors, &mut scratch.uu)
        });
        scratch.reset_for(history);
        let cand = &mut scratch.cand;
        for &i in items {
            if !scratch.hist.contains(i) && scratch.seen.insert(i) {
                cand.items.push(i);
                cand.ui_scores
                    .push(sccf_tensor::dot(&rep, self.shared.model.item_embedding(i)));
                cand.uu_scores.push(scratch.uu.scores.get(i));
            }
        }
        cand.user_rep.extend_from_slice(&rep);
    }

    /// One-shot form of [`Sccf::features_for_with`].
    pub fn features_for(&self, user: u32, history: &[u32], items: &[u32]) -> CandidateFeatures {
        let mut scratch = self.new_scratch();
        self.features_for_with(user, history, items, &mut scratch);
        scratch.cand
    }

    /// The fully typed query path: final SCCF ranking over the union
    /// under an explicit candidate source and exclusion policy, with
    /// the Table III infer/identify timing split measured per stage.
    ///
    /// Admits the user ([`Admission::user`]), infers `m_u` from
    /// `history`, then builds the slate from it in the private slate
    /// core, which admits the query (no panics on bad input). With the
    /// defaults (`CandidateSource::Configured`,
    /// [`Exclusion::History`]) the result is bit-identical to
    /// [`Sccf::recommend_with`] — a thin wrapper over this — and to
    /// [`crate::RealtimeEngine::recommend_query`], which builds the same
    /// slate from the user's index row instead of inferring.
    pub fn recommend_query(
        &self,
        user: u32,
        history: &[u32],
        k: usize,
        source: CandidateSource,
        exclusion: &Exclusion,
        scratch: &mut QueryScratch,
    ) -> Result<(Vec<Scored>, EventTiming), QueryError> {
        self.admission().user(user, Some)?;
        let sw = Stopwatch::start();
        let rep = self.shared.model.infer_user(history);
        let infer_ms = sw.elapsed_ms();
        let (slate, timing) = self.slate(user, &rep, history, k, source, exclusion, scratch)?;
        Ok((slate, EventTiming { infer_ms, ..timing }))
    }

    /// The slate core, given an in-population `user` and her
    /// representation `rep`: [`Admission::query`], then the candidate
    /// step and the fused top `k`. The timing split it returns is all
    /// identifying (`infer_ms` 0): `rep` is already there.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn slate(
        &self,
        user: u32,
        rep: &[f32],
        history: &[u32],
        k: usize,
        source: CandidateSource,
        exclusion: &Exclusion,
        scratch: &mut QueryScratch,
    ) -> Result<(Vec<Scored>, EventTiming), QueryError> {
        self.admission().query(source, exclusion)?;
        let item_index = match source {
            CandidateSource::Exact => None,
            CandidateSource::Configured | CandidateSource::Ann => self.shared.item_index.as_ref(),
        };
        let sw = Stopwatch::start();
        self.candidates_into(user, rep, history, item_index, exclusion, scratch);
        let table = self.shared.model.item_embeddings();
        let slate = self.shared.integrator.rank(&scratch.cand, table, k);
        let identify_ms = sw.elapsed_ms();
        Ok((
            slate,
            EventTiming {
                infer_ms: 0.0,
                identify_ms,
            },
        ))
    }

    /// Final SCCF ranking over the union, reusing `scratch` — the
    /// real-time `recommend` call. Returns `(item id, fused score)`
    /// sorted descending, truncated to `n`. Defined as
    /// [`Sccf::recommend_query`] with the default source and exclusion
    /// (bit-identical floats); panics on ids the typed path would
    /// reject.
    pub fn recommend_with(
        &self,
        user: u32,
        history: &[u32],
        n: usize,
        scratch: &mut QueryScratch,
    ) -> Vec<Scored> {
        self.recommend_query(
            user,
            history,
            n,
            CandidateSource::Configured,
            &Exclusion::History,
            scratch,
        )
        .map(|(items, _)| items)
        .unwrap_or_else(|e| panic!("recommend: {e}"))
    }

    /// One-shot form of [`Sccf::recommend_with`].
    pub fn recommend(&self, user: u32, history: &[u32], n: usize) -> Vec<Scored> {
        let mut scratch = self.new_scratch();
        self.recommend_with(user, history, n, &mut scratch)
    }

    /// Split this instance into `n_shards` user-partitioned views over
    /// one shared item-side half.
    ///
    /// `assign(u)` maps each user to her owning shard (must return a
    /// value `< n_shards`). Shard `s` receives:
    ///
    /// * a clone of the `Arc<SccfShared>` — item embeddings, optional
    ///   HNSW item index and integrator are **not** copied;
    /// * its own *compact* user index and recent-item rings holding only
    ///   owned users (a slot ↔ global-id map translates at the API
    ///   boundary), so the per-event neighbor scan costs O(owned users)
    ///   and total index + ring memory across shards stays one
    ///   population's worth. (The slot map — 4 bytes per user — is the
    ///   only per-view whole-population array; the realtime engine's
    ///   history table is compact too, and its snapshots are re-framed
    ///   whole-population through the map.)
    ///
    /// Per-user state is **derived from `histories`** (re-inferring each
    /// owned user's representation), exactly like
    /// [`crate::RealtimeEngine::restore`] — so `histories` must be the
    /// current source of truth. With `n_shards == 1` the single view is
    /// bit-identical to `self` after a refresh to the same histories
    /// (pinned by `tests/sharded.rs`).
    ///
    /// Consequence of the partition: each view's [`Sccf::neighbors`]
    /// searches only the users its shard owns — Eq. 11 neighborhoods
    /// become *in-shard* neighborhoods for `n_shards > 1`. That is the
    /// standard industrial trade for linear ingest scaling; see
    /// `docs/ARCHITECTURE.md` for the accuracy discussion.
    pub fn into_shards(
        self,
        histories: &[Vec<u32>],
        n_shards: usize,
        assign: impl Fn(u32) -> usize,
    ) -> Vec<Sccf<M>> {
        self.into_shard_slice(histories, n_shards, |u| Some(assign(u)))
    }

    /// Like [`Sccf::into_shards`], but `assign` may return `None` for
    /// users this process does not host at all — the multi-process
    /// fleet path, where each shard-server builds only its window of
    /// the global ring. Unassigned users appear in **no** view (each
    /// view still knows the full population size, so ids stay global).
    ///
    /// The per-user representations are still inferred over the *whole*
    /// population before partitioning, so a slice's shard `s` is
    /// bit-identical to shard `base + s` of a full [`Sccf::into_shards`]
    /// over the same histories — the foundation of the fleet's pinned
    /// single-process equivalence.
    pub fn into_shard_slice(
        self,
        histories: &[Vec<u32>],
        n_shards: usize,
        assign: impl Fn(u32) -> Option<usize>,
    ) -> Vec<Sccf<M>> {
        assert!(n_shards > 0, "need at least one shard");
        let n_users = self.user_count();
        assert_eq!(histories.len(), n_users, "one history per indexed user");
        // Only the shared half outlives the consumed view: its index,
        // rings and slot map are freed here, before every user's
        // representation and every shard's copy are built.
        let Sccf {
            shared,
            user_index,
            user_comp,
            owned,
            global_tier,
        } = self;
        drop((user_index, user_comp, owned, global_tier));
        let dim = shared.model.dim();
        let n_items = shared.model.n_items();
        // One threaded pass over the whole population (each user's
        // representation lands in at most one shard) — same parallel
        // helper `build`/`refresh_for_test` use.
        let reps = infer_all_reps(&shared.model, histories, shared.cfg.threads);
        // One routing pass: assign(u) is called exactly once per user.
        let mut shard_members: Vec<Vec<u32>> = vec![Vec::new(); n_shards];
        for u in 0..n_users as u32 {
            let Some(s) = assign(u) else { continue };
            assert!(s < n_shards, "assign({u}) = {s} out of {n_shards} shards");
            shard_members[s].push(u);
        }
        let window = shared.cfg.user_based.recent_window;
        shard_members
            .into_iter()
            .map(|globals| {
                // Compact rings: row l belongs to global user globals[l].
                // Only the window tail is copied — the rings keep no more.
                let user_comp = UserBasedComponent::new(
                    shared.cfg.user_based.clone(),
                    n_items,
                    globals.iter().map(|&g| {
                        let h = &histories[g as usize];
                        h[h.len().saturating_sub(window)..].to_vec()
                    }),
                );
                let mut user_index = FlatIndex::new(dim);
                for &g in &globals {
                    user_index.add(&reps[g as usize]);
                }
                Sccf {
                    shared: Arc::clone(&shared),
                    user_index,
                    user_comp,
                    owned: ShardMap::new(n_users, globals),
                    global_tier: None,
                }
            })
            .collect()
    }

    /// A shard view that owns **no users yet**, over an existing shared
    /// item-side half — the live-resharding scale-out path: a freshly
    /// spawned worker starts empty and adopts users one handoff batch at
    /// a time (`Sccf::adopt_user` via `RealtimeEngine::import_user`).
    ///
    /// `n_users` is the full population size (the view still *knows*
    /// every user, it just owns none of them), matching the views
    /// [`Sccf::into_shards`] produces.
    pub fn empty_shard_view(shared: &Arc<SccfShared<M>>, n_users: usize) -> Self {
        let user_comp = UserBasedComponent::new(
            shared.cfg.user_based.clone(),
            shared.model.n_items(),
            std::iter::empty(),
        );
        Self {
            shared: Arc::clone(shared),
            user_index: FlatIndex::new(shared.model.dim()),
            user_comp,
            owned: ShardMap::new(n_users, Vec::new()),
            global_tier: None,
        }
    }

    /// Adopt `user` into this view at the next free slot: index
    /// row from the supplied representation, recent-item ring from the
    /// history tail — exactly the state [`Sccf::into_shards`] /
    /// [`crate::RealtimeEngine::restore`] would derive. The caller (the
    /// realtime engine's import path) stores the history itself.
    ///
    /// # Panics
    /// If the user is already owned here — the migration router must
    /// only import unowned users.
    pub(crate) fn adopt_user(&mut self, user: u32, history: &[u32], rep: &[f32]) {
        let map = &mut self.owned;
        assert_eq!(
            map.local_of[user as usize],
            u32::MAX,
            "adopt_user: user {user} already owned by this shard"
        );
        let slot = map.globals.len() as u32;
        map.globals.push(user);
        map.local_of[user as usize] = slot;
        let pushed = self.user_index.add(rep);
        debug_assert_eq!(pushed, slot);
        self.user_comp.push_user(history);
    }

    /// Evict `user` from this view, swap-removing its slot (the
    /// view's last-slot user moves into the freed slot; the map mirrors
    /// the swap). Returns the freed slot so the caller can apply the
    /// same swap to slot-addressed state it owns (the engine's history
    /// table).
    ///
    /// # Panics
    /// If the user is not owned here.
    pub(crate) fn evict_user(&mut self, user: u32) -> u32 {
        let map = &mut self.owned;
        let slot = match map.local(user) {
            Some(s) => s,
            None => panic!("evict_user: user {user} is not owned by this shard"),
        };
        let last = map.globals.len() - 1;
        self.user_index.swap_remove(slot);
        self.user_comp.swap_remove_user(slot);
        map.globals.swap_remove(slot as usize);
        map.local_of[user as usize] = u32::MAX;
        if (slot as usize) != last {
            let moved = map.globals[slot as usize];
            map.local_of[moved as usize] = slot;
        }
        slot
    }

    /// Re-order this view's compact slots into ascending global-id
    /// order — the canonical layout [`Sccf::into_shards`] (and therefore
    /// snapshot restore) produces. Incremental adopt/evict leaves slots
    /// in arrival order; after a migration quiesces, canonicalizing
    /// makes the live-resharded state *bit-identical* to an offline
    /// `snapshot` + `restore` of the same histories (slot order is
    /// observable through index tie-breaking and Eq. 12 summation
    /// order). Pure permutation: no inference, vectors and ring contents
    /// are moved verbatim.
    ///
    /// Returns the permutation applied (`perm[new_slot] = old_slot`) so
    /// the caller can permute its own slot-addressed state, or `None` if
    /// the layout was already canonical.
    pub(crate) fn canonicalize_owned(&mut self) -> Option<Vec<u32>> {
        let map = &self.owned;
        if map.globals.windows(2).all(|w| w[0] < w[1]) {
            return None;
        }
        let mut perm: Vec<u32> = (0..map.globals.len() as u32).collect();
        perm.sort_by_key(|&s| map.globals[s as usize]);
        let mut index = FlatIndex::new(self.user_index.dim());
        for &old_slot in &perm {
            index.add(self.user_index.vector(old_slot));
        }
        let comp = UserBasedComponent::new(
            self.shared.cfg.user_based.clone(),
            self.shared.model.n_items(),
            perm.iter()
                .map(|&s| self.user_comp.recent_items(s).collect()),
        );
        let globals: Vec<u32> = perm.iter().map(|&s| map.globals[s as usize]).collect();
        self.owned = ShardMap::new(self.user_count(), globals);
        self.user_index = index;
        self.user_comp = comp;
        Some(perm)
    }
}

/// Build the candidate union and raw scores for one user into
/// `scratch.cand`.
///
/// UI side: exact Eq. 10 (dense scan into the reused buffer) or, when
/// `item_index` is present, an HNSW search over the item embeddings.
/// UU side: sparse Eq. 12, produced by `fill_uu` (live rings and
/// frozen windows accumulated in one pass) — only ids touched by the
/// neighborhood exist.
/// Union: UI list first, then new UU entries, deduped via stamp sets.
/// `exclusion` decides the mask (history by default; see [`Exclusion`]).
#[allow(clippy::too_many_arguments)]
fn assemble_candidates_into<M: InductiveUiModel>(
    model: &M,
    item_index: Option<&HnswIndex>,
    rep: &[f32],
    history: &[u32],
    candidate_n: usize,
    exclusion: &Exclusion,
    scratch: &mut QueryScratch,
    fill_uu: impl FnOnce(&mut UuScratch),
) {
    scratch.reset_excluding(history, exclusion);
    // UI side (Eq. 10)
    let ui_top: Vec<Scored> = match item_index {
        None => {
            model.score_by_rep_into(rep, &mut scratch.ui_scores);
            match exclusion {
                Exclusion::History => {
                    for &i in history {
                        scratch.ui_scores[i as usize] = f32::NEG_INFINITY;
                    }
                }
                Exclusion::HistoryAnd(extra) => {
                    for &i in history.iter().chain(extra) {
                        scratch.ui_scores[i as usize] = f32::NEG_INFINITY;
                    }
                }
                Exclusion::Nothing => {}
            }
            sccf_util::topk::topk_of_scores(&scratch.ui_scores, candidate_n)
        }
        Some(idx) => {
            // Masked items never occupy result slots: the exclusion
            // mask rides into the search as a skip predicate, so a
            // heavy user's history can't starve the UI list the way a
            // retain-after-search would. Because the representation is
            // inferred *from* the history, its items still dominate
            // the *traversal* frontier — the beam width is widened
            // with the request until `candidate_n` unmasked hits
            // survive (or the index is exhausted).
            let mut k = candidate_n + exclusion.masked_len(history).min(candidate_n);
            let mut hits = std::mem::take(&mut scratch.ann_hits);
            let hist = &scratch.hist;
            let skip = |i: u32| hist.contains(i);
            loop {
                idx.search_filtered_into(
                    rep,
                    k,
                    idx.ef_search().max(k),
                    Some(&skip),
                    &mut scratch.tier.hnsw,
                    &mut hits,
                );
                let exhausted = hits.len() < k || k >= idx.len();
                if hits.len() >= candidate_n || exhausted {
                    hits.truncate(candidate_n);
                    break hits;
                }
                k = (k * 2).min(idx.len());
            }
        }
    };
    // UU side (Eq. 12), sparse: topk over touched ids outside the history
    fill_uu(&mut scratch.uu);
    let uu_top: Vec<Scored> = sccf_util::topk::topk_of_pairs(
        scratch
            .uu
            .scores
            .iter()
            .filter(|&(id, s)| s > 0.0 && !scratch.hist.contains(id)),
        candidate_n,
    );
    // union, stable order: UI list then new UU entries
    let cand = &mut scratch.cand;
    for s in ui_top.iter().chain(uu_top.iter()) {
        // The dense UI top-k can still contain (−∞-masked) history items
        // when `candidate_n` exceeds the non-history catalog; drop them.
        if !scratch.hist.contains(s.id) && scratch.seen.insert(s.id) {
            cand.items.push(s.id);
        }
    }
    for idx in 0..cand.items.len() {
        let i = cand.items[idx];
        let ui = match item_index {
            None => scratch.ui_scores[i as usize],
            Some(_) => sccf_tensor::dot(rep, model.item_embedding(i)),
        };
        cand.ui_scores.push(ui);
        cand.uu_scores.push(scratch.uu.scores.get(i));
    }
    cand.user_rep.extend_from_slice(rep);
    // Hand the UI result buffer back to the scratch so ANN-mode
    // steady state keeps its capacity (the dense path's fresh top-k
    // vector simply replaces whatever was parked there).
    scratch.ann_hits = ui_top;
}

thread_local! {
    /// Per-thread scratch backing the allocation-free `Recommender`
    /// path: the offline protocol calls `score_all_into` from its
    /// worker threads, and each keeps one catalog-sized scratch here
    /// instead of allocating per evaluated user. Re-allocated only when
    /// an instance with a different catalog size is scored on the same
    /// thread.
    static EVAL_SCRATCH: RefCell<Option<QueryScratch>> = const { RefCell::new(None) };
}

impl<M: InductiveUiModel> Recommender for Sccf<M> {
    fn name(&self) -> String {
        format!("{}-SCCF", self.shared.model.name())
    }

    fn n_items(&self) -> usize {
        self.shared.model.n_items()
    }

    /// Full-catalog scores: fused scores on the candidate union, −∞
    /// elsewhere (non-candidates are never recommended — the two-stage
    /// contract of candidate generation).
    fn score_all(&self, user: u32, history: &[u32]) -> Vec<f32> {
        let mut scores = Vec::new();
        self.score_all_into(user, history, &mut scores);
        scores
    }

    /// Allocation-free form of `score_all`: candidate assembly runs in a
    /// thread-local [`QueryScratch`] and the fused scores scatter into
    /// the caller's reused buffer, so whole-protocol offline evaluation
    /// of SCCF performs no catalog-sized allocation per user.
    fn score_all_into(&self, user: u32, history: &[u32], out: &mut Vec<f32>) {
        let n_items = self.shared.model.n_items();
        EVAL_SCRATCH.with(|cell| {
            let mut slot = cell.borrow_mut();
            if !matches!(&*slot, Some(s) if s.n_items() == n_items) {
                *slot = Some(self.new_scratch());
            }
            let scratch = slot.as_mut().expect("scratch just ensured");
            self.candidate_features_with(user, history, scratch);
            let fused = self
                .shared
                .integrator
                .score(&scratch.cand, self.shared.model.item_embeddings());
            out.clear();
            out.resize(n_items, f32::NEG_INFINITY);
            for (&i, &s) in scratch.cand.items.iter().zip(&fused) {
                out[i as usize] = s;
            }
        });
    }
}
