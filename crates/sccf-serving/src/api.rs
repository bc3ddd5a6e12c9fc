//! The unified serving surface: one typed request/response API over
//! both engine shapes.
//!
//! The paper's serving story (Tables III/IV) is one logical operation
//! set — ingest an event, ask for top-k — but the repo grew two
//! front-ends for it: the single-writer [`RealtimeEngine`] and the
//! sharded multi-writer `ShardedEngine`. [`ServingApi`] makes them
//! interchangeable:
//!
//! * **Typed requests** — [`RecQuery`] carries `k`, the
//!   [`Exclusion`] policy (history / history + business rules /
//!   nothing) and the [`CandidateSource`] (exact Eq. 10 scan vs HNSW).
//! * **Typed responses** — [`RecResponse`] returns the scored slate
//!   plus the per-stage [`EventTiming`] split of Table III.
//! * **Fallible everywhere** — [`ServingError`] replaces the historical
//!   panic-on-unknown-id behavior; a rejected request never corrupts or
//!   kills an engine (or a shard worker).
//! * **Batched** — [`ServingApi::ingest_batch`] and
//!   [`ServingApi::recommend_many`] amortize queue/drain crossings in
//!   the sharded engine and validate atomically (a bad id fails the
//!   whole batch *before* any event is applied).
//! * **One stats shape** — [`ServingStats`] subsumes
//!   [`EngineTimings`] and the sharded engine's per-shard reports.
//! * **One snapshot artifact** — [`ServingApi::snapshot_state`] emits
//!   the whole-population history format
//!   ([`sccf_core::encode_histories`]) from either engine, and either
//!   engine restores it at any shard count: offline resharding N→M is
//!   `snapshot_state()` + `ShardedEngine::restore(.., new_cfg)`.
//!
//! ```
//! use sccf_core::{FrozenTierMode, IntegratorConfig, RealtimeEngine, Sccf, SccfConfig, UserBasedConfig};
//! use sccf_data::{Dataset, Interaction, LeaveOneOut};
//! use sccf_models::{Fism, FismConfig, TrainConfig};
//! use sccf_serving::api::{RecQuery, ServingApi};
//!
//! // A tiny world and a built framework.
//! let inter: Vec<Interaction> = (0..8u32)
//!     .flat_map(|u| (0..4).map(move |t| Interaction {
//!         user: u,
//!         item: (u / 4) * 4 + (u + t) % 4,
//!         ts: t as i64,
//!     }))
//!     .collect();
//! let data = Dataset::from_interactions("doc", 8, 8, &inter, None);
//! let split = LeaveOneOut::split(&data);
//! let fism = Fism::train(&split, &FismConfig {
//!     train: TrainConfig { dim: 4, epochs: 2, ..Default::default() },
//!     ..Default::default()
//! });
//! let sccf = Sccf::build(fism, &split, SccfConfig {
//!     user_based: UserBasedConfig { beta: 3, recent_window: 4 },
//!     candidate_n: 6,
//!     integrator: IntegratorConfig { epochs: 2, ..Default::default() },
//!     threads: 1,
//!     ui_ann: None,
//!     frozen_tier: FrozenTierMode::Flat,
//! });
//! let histories: Vec<Vec<u32>> = (0..8u32).map(|u| split.train_plus_val(u)).collect();
//!
//! // The same code drives a plain or a sharded engine.
//! fn serve(api: &mut impl ServingApi) -> usize {
//!     api.ingest_batch(&[(0, 5), (1, 6)]).expect("valid ids");
//!     api.flush().expect("barrier");
//!     let res = api.try_recommend(0, &RecQuery::top(3)).expect("user 0 exists");
//!     res.items.len()
//! }
//! let mut plain = RealtimeEngine::new(sccf, histories);
//! assert!(serve(&mut plain) > 0);
//! let stats = plain.serving_stats().unwrap();
//! assert_eq!(stats.events, 2);
//! assert_eq!(stats.recommends, 1);
//! ```

use std::sync::Mutex;

use sccf_core::{
    CandidateSource, EngineTimings, EventTiming, Exclusion, FrozenTierMode, GlobalNeighborSnapshot,
    QueryError, RealtimeEngine, SnapshotDecodeError, TierMismatch,
};
use sccf_models::InductiveUiModel;
use sccf_util::topk::Scored;

use crate::ab_test::CandidateGen;
use crate::sharded::ShardReport;

/// One typed recommendation request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecQuery {
    /// Slate size: how many items to return.
    pub k: usize,
    /// Which retrieval path serves the UI candidates (exact Eq. 10 scan
    /// vs HNSW). `Configured` follows the build.
    pub source: CandidateSource,
    /// Which items the slate must not contain. `History` is the paper's
    /// rule and the default.
    pub exclude: Exclusion,
}

impl Default for RecQuery {
    fn default() -> Self {
        Self::top(10)
    }
}

impl RecQuery {
    /// The standard query: top-`k`, configured source, history excluded.
    pub fn top(k: usize) -> Self {
        Self {
            k,
            source: CandidateSource::Configured,
            exclude: Exclusion::History,
        }
    }

    /// Override the candidate source.
    pub fn with_source(mut self, source: CandidateSource) -> Self {
        self.source = source;
        self
    }

    /// Override the exclusion policy.
    pub fn excluding(mut self, exclude: Exclusion) -> Self {
        self.exclude = exclude;
        self
    }
}

/// One typed recommendation response.
#[derive(Debug, Clone)]
pub struct RecResponse {
    /// The slate: `(item id, fused score)` descending, at most `k` long.
    pub items: Vec<Scored>,
    /// Table III split for this query: representation inference vs
    /// neighborhood + candidate + fusion work. Measured on the worker
    /// thread that actually served the query. A served slate reads the
    /// user's index row, so its `infer_ms` is 0; inferring is paid per
    /// event.
    pub timing: EventTiming,
}

impl RecResponse {
    /// Just the item ids, in rank order.
    pub fn ids(&self) -> Vec<u32> {
        self.items.iter().map(|s| s.id).collect()
    }
}

/// Why a serving request was rejected. Every public entry point of the
/// unified surface returns this instead of panicking; a rejected
/// request leaves the engine fully serviceable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServingError {
    /// The user id is outside the indexed population.
    UnknownUser { user: u32, n_users: usize },
    /// An item id (event or exclusion entry) is outside the catalog.
    UnknownItem { item: u32, n_items: usize },
    /// [`CandidateSource::Ann`] requested on an engine built without
    /// `ui_ann`.
    AnnUnavailable,
    /// A shard view was asked about a user another shard owns.
    NotOwned { user: u32 },
    /// The engine could not be constructed as configured (zero shards,
    /// zero queue capacity, history table of the wrong size, …).
    InvalidConfig(String),
    /// A snapshot artifact failed to decode.
    Snapshot(SnapshotDecodeError),
    /// A whole-engine operation (snapshot, checkpoint) was requested
    /// while an incremental epoch (live reshard or global-tier
    /// refresh) is in flight. Finish or abort the epoch first; racing
    /// it would capture a state no uninterrupted engine ever held.
    EpochInFlight {
        /// What was requested (`"snapshot"`, `"checkpoint"`, …).
        requested: &'static str,
        /// What is in flight (`"reshard"` or `"refresh"`).
        in_flight: &'static str,
    },
    /// The durability layer failed: an I/O error, or a WAL/checkpoint
    /// artifact that did not validate. Carries the underlying error
    /// rendered as text (I/O errors are not `Clone`/`PartialEq`).
    Durability(String),
    /// The networked-fleet transport failed (connection refused or
    /// dropped, a frame that did not validate, a protocol mismatch), or
    /// a remote error arrived whose variant cannot round-trip
    /// structurally (e.g. [`ServingError::EpochInFlight`] carries
    /// `&'static str`s) and was degraded to its display text. Carries
    /// the underlying failure rendered as text.
    Wire(String),
}

impl From<QueryError> for ServingError {
    fn from(e: QueryError) -> Self {
        match e {
            QueryError::UnknownUser { user, n_users } => Self::UnknownUser { user, n_users },
            QueryError::UnknownItem { item, n_items } => Self::UnknownItem { item, n_items },
            QueryError::AnnUnavailable => Self::AnnUnavailable,
            QueryError::NotOwned { user } => Self::NotOwned { user },
        }
    }
}

impl From<TierMismatch> for ServingError {
    /// A tier that does not fit: a wrong population or dimension is a
    /// configuration error, a window item past the catalog an unknown
    /// item.
    fn from(e: TierMismatch) -> Self {
        match e {
            TierMismatch::UnknownItem { item, n_items } => Self::UnknownItem { item, n_items },
            TierMismatch::Population { .. } | TierMismatch::Dimension { .. } => {
                Self::InvalidConfig(e.to_string())
            }
        }
    }
}

impl From<SnapshotDecodeError> for ServingError {
    fn from(e: SnapshotDecodeError) -> Self {
        Self::Snapshot(e)
    }
}

impl From<crate::wal::WalError> for ServingError {
    fn from(e: crate::wal::WalError) -> Self {
        Self::Durability(e.to_string())
    }
}

impl std::fmt::Display for ServingError {
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
                "ANN candidate source requested but the engine was built without `ui_ann`"
            ),
            Self::NotOwned { user } => write!(f, "user {user} is not owned by this shard"),
            Self::InvalidConfig(msg) => write!(f, "invalid engine configuration: {msg}"),
            Self::Snapshot(e) => write!(f, "snapshot: {e}"),
            Self::EpochInFlight {
                requested,
                in_flight,
            } => write!(
                f,
                "{requested} rejected: a {in_flight} epoch is in flight (finish or abort it first)"
            ),
            Self::Durability(msg) => write!(f, "durability: {msg}"),
            Self::Wire(msg) => write!(f, "wire: {msg}"),
        }
    }
}

impl std::error::Error for ServingError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Snapshot(e) => Some(e),
            _ => None,
        }
    }
}

/// Live-resharding progress counters, part of [`ServingStats`]. All
/// zeros on the single-writer engine and on fleets that never
/// resharded; `docs/OPERATIONS.md` explains how to read them during a
/// migration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MigrationStats {
    /// A reshard has begun and not yet quiesced.
    pub in_progress: bool,
    /// Users handed off across every reshard of this fleet's life.
    pub migrated_users: u64,
    /// Users still awaiting handoff in the current migration (0 when
    /// stable).
    pub pending_users: u64,
    /// Handoff batches executed across every reshard.
    pub batches: u64,
}

/// Two-tier neighborhood health, part of [`ServingStats`]: which global
/// snapshot epoch serving currently merges with the shard-local deltas,
/// how much of the population it covers, and how stale it is. All
/// zeros/disabled on engines that never installed a global tier —
/// their neighborhoods are purely local, the historical behavior.
/// `docs/OPERATIONS.md` explains how to pick a refresh cadence from
/// these numbers.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NeighborhoodStats {
    /// A frozen global tier is installed and merging into Eq. 11.
    pub two_tier: bool,
    /// Epoch of the installed global snapshot (0 = none ever built).
    pub epoch: u64,
    /// Users the snapshot holds a usable vector for.
    pub users_covered: u64,
    /// Events accepted since the snapshot was installed — the tier's
    /// staleness. Shard-local deltas already reflect these; only
    /// *cross-shard* visibility lags by at most this many events.
    pub events_since_refresh: u64,
    /// Wall-clock duration of the last completed refresh
    /// (export + build + swap), milliseconds. 0 before the first.
    pub last_refresh_ms: f64,
    /// An incremental refresh (`begin_refresh`/`refresh_step`) is in
    /// flight.
    pub refresh_in_progress: bool,
    /// How the installed snapshot's frozen tier is searched
    /// ([`FrozenTierMode::Flat`] when no tier is installed — the
    /// accurate default, since no frozen search happens at all).
    pub tier_mode: FrozenTierMode,
    /// Resident bytes of the tier's acceleration structure (graph /
    /// codes / centroids). 0 for flat: the frozen vectors themselves
    /// belong to the snapshot regardless of mode.
    pub tier_bytes: u64,
    /// Mean wall-clock nanoseconds of one frozen-tier search, measured
    /// by probe queries when the snapshot was installed (0 before the
    /// first install, and on the plain engine, which runs no probe).
    pub tier_search_ns: f64,
    /// Users the last completed refresh exported — the whole population
    /// on a full refresh, the dirty set on a delta refresh. 0 before
    /// the first refresh; the ratio to the population is the delta
    /// path's cost saving.
    pub last_refresh_users: u64,
    /// The next refresh splices: the installed tier was built by this
    /// fleet's own refresh pipeline, so the per-shard dirty sets name
    /// exactly the rows that differ from it. False with no tier, after
    /// an external `install_global_tier`, after `clear_global_tier` or a
    /// restore — the next refresh then exports everyone and builds
    /// fresh.
    pub delta_ready: bool,
}

impl NeighborhoodStats {
    /// The tier half, filled the same way by every engine: what the
    /// installed snapshot is, and `events_since_refresh` — the events
    /// it has not seen. Without a tier, everything is zero. The refresh
    /// half stays at its defaults: only the sharded engine refreshes.
    pub(crate) fn of_tier(
        tier: Option<&GlobalNeighborSnapshot>,
        events_since_refresh: u64,
    ) -> Self {
        tier.map_or_else(Self::default, |t| Self {
            two_tier: true,
            epoch: t.epoch(),
            users_covered: t.covered_users() as u64,
            events_since_refresh,
            tier_mode: t.tier_mode(),
            tier_bytes: t.tier_bytes() as u64,
            ..Self::default()
        })
    }
}

/// Router-side queue backpressure, part of [`ServingStats`]. The
/// router senses pressure where it exists: at the bounded shard
/// queues. Two complementary signals, both sampled at send time so no
/// probe ever has to ride the FIFO queue itself:
///
/// * a *stall* is one send that found the queue full and had to block
///   until the worker drained — saturation, the hard edge;
/// * `peak_queue` is the deepest any shard queue stood at a send —
///   occupancy, which keeps rising toward capacity *before* sends
///   start blocking, so the autoscaling policy
///   (`sccf_serving::control`) can act ahead of the hard edge.
///
/// All zeros on the single-writer engine (no queues).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PressureStats {
    /// Messages the router pushed onto shard queues (events,
    /// recommendations, barriers, epoch traffic) this process lifetime.
    pub sends: u64,
    /// Sends that found the target queue full and blocked.
    pub stalls: u64,
    /// Total wall-clock milliseconds the router spent blocked on full
    /// queues.
    pub stall_ms: f64,
    /// Current per-shard queue capacity (the most recent
    /// `ShardedConfig::queue_capacity` applied — reshards swap
    /// surviving workers' queues to the new capacity).
    pub queue_capacity: u64,
    /// High-water mark of any shard queue's depth observed at send
    /// time **since the previous stats sample** (read-and-clear, so
    /// each sample reports its own window). `peak_queue /
    /// queue_capacity` is the occupancy ratio the control policy
    /// thresholds on.
    pub peak_queue: u64,
}

/// Durability-layer health, part of [`ServingStats`]: WAL volume, fsync
/// debt and checkpoint progress. All zeros/disabled on engines running
/// without durability — the historical in-memory-only behavior.
/// `docs/OPERATIONS.md` explains how to size the fsync cadence and
/// checkpoint interval from these numbers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DurabilityStats {
    /// A WAL + checkpoint directory is armed.
    pub enabled: bool,
    /// Records appended across all shard WALs this process lifetime.
    pub wal_records: u64,
    /// Total WAL bytes written (sum over shard files).
    pub wal_bytes: u64,
    /// WAL bytes not yet covered by an fsync — the crash loss window,
    /// bounded by `fsync_every` records per shard.
    pub wal_unsynced_bytes: u64,
    /// fsync calls issued across all shard WALs.
    pub wal_syncs: u64,
    /// Checkpoint epochs written (epoch 0 full export included).
    pub checkpoints: u64,
    /// Global event sequence the newest checkpoint is consistent with.
    pub checkpoint_watermark: u64,
    /// Bytes of the newest checkpoint file.
    pub last_checkpoint_bytes: u64,
    /// Events routed since the newest checkpoint — the replay debt a
    /// crash right now would pay.
    pub events_since_checkpoint: u64,
}

/// Wire-transport pipelining counters, part of [`ServingStats`]:
/// populated by the networked fleet's shard servers (`sccf-net`),
/// all zeros on in-process engines — there is no wire to pipeline.
///
/// `read_ahead_hits / requests` is the overlap ratio: the fraction of
/// requests that were already decoded-and-waiting when the engine
/// finished the previous one, i.e. whose socket time was fully hidden
/// behind engine work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Framed requests handled by this process's connection threads.
    pub requests: u64,
    /// Requests that were already buffered in a connection's read-ahead
    /// queue when the engine picked them up (their read/decode
    /// overlapped a predecessor's processing).
    pub read_ahead_hits: u64,
    /// High-water mark of any connection's read-ahead queue depth.
    pub peak_read_ahead: u64,
    /// Configured read-ahead queue capacity per connection: ≥ 1 on
    /// every shard server, 0 on in-process engines (no wire).
    pub read_ahead_capacity: u64,
}

/// Unified serving statistics: subsumes the plain engine's
/// [`EngineTimings`] and the sharded engine's per-shard reports in one
/// shape, so dashboards and benches read both engine kinds identically.
#[derive(Debug, Clone, Default)]
pub struct ServingStats {
    /// Events ingested (each re-inferred its user and rewrote her index
    /// row; the neighbor search is paid per slate, not per event).
    pub events: u64,
    /// Recommendation requests served.
    pub recommends: u64,
    /// Per-event write-path cost, merged across all workers: `infer` is
    /// Table III's inferring leg, `identify` is index maintenance only.
    /// Each stage reports its mean and p50/p95/p99; the percentiles
    /// merge exactly across shards and processes. The Eq. 11 search is
    /// in [`RecResponse::timing`].
    pub timings: EngineTimings,
    /// Per-shard breakdown; empty on the single-writer engine. After a
    /// live scale-in this includes retired workers' final reports, so
    /// `events` accounts for the fleet's whole life.
    pub shards: Vec<ShardReport>,
    /// Live-resharding progress (see `ShardedEngine::reshard`).
    pub migration: MigrationStats,
    /// Two-tier neighborhood health (see
    /// `ShardedEngine::refresh_global_tier`).
    pub neighborhood: NeighborhoodStats,
    /// Durability-layer health (see `ShardedEngine::enable_durability`).
    pub durability: DurabilityStats,
    /// Router-side queue backpressure (the autoscaling policy's input;
    /// see `sccf_serving::control`).
    pub pressure: PressureStats,
    /// Wire-transport pipelining counters (networked fleet only).
    pub transport: TransportStats,
}

impl ServingStats {
    /// Fold per-shard reports into the unified shape.
    pub fn from_shards(shards: Vec<ShardReport>) -> Self {
        let mut stats = ServingStats::default();
        for r in &shards {
            stats.events += r.events;
            stats.recommends += r.recommends;
            stats.timings.merge(&r.timings);
        }
        stats.shards = shards;
        stats
    }
}

/// The one serving interface both engines implement.
///
/// Everything returns `Result`: invalid ids and unsatisfiable queries
/// surface as [`ServingError`] instead of panicking. The trait is
/// object-safe — `&mut dyn ServingApi` works —
/// and batch entry points are **atomic**: the whole batch is validated
/// before any event is applied, so an error means "nothing happened".
///
/// Semantics shared by both implementations:
///
/// * per-user read-your-writes: a recommendation observes every event
///   the same caller ingested before it;
/// * [`ServingApi::flush`] is a barrier: afterwards, every prior ingest
///   is reflected in every user's recommendations;
/// * [`ServingApi::snapshot_state`] emits the whole-population artifact
///   of [`sccf_core::encode_histories`], restorable by either engine at
///   any shard count.
pub trait ServingApi {
    /// Ingest one interaction: history, representation and index row
    /// are current when it returns or is flushed; no neighbor search
    /// runs (the next slate identifies). Returns the event's infer /
    /// index-maintenance split when the engine processes synchronously
    /// ([`RealtimeEngine`]), `None` when the event was queued to a
    /// worker (`ShardedEngine` — read aggregate timings via
    /// [`ServingApi::serving_stats`]).
    fn try_ingest(&mut self, user: u32, item: u32) -> Result<Option<EventTiming>, ServingError>;

    /// Ingest a batch of `(user, item)` events in order. Validated
    /// atomically up front; on the sharded engine the whole batch is
    /// routed in one wave (no per-event reply crossings). Returns the
    /// number of events ingested.
    fn ingest_batch(&mut self, events: &[(u32, u32)]) -> Result<u64, ServingError>;

    /// Serve one typed recommendation request.
    fn try_recommend(&mut self, user: u32, query: &RecQuery) -> Result<RecResponse, ServingError>;

    /// Serve the same query for many users, amortizing queue crossings:
    /// the sharded engine fans all requests out before collecting any
    /// reply. Responses come back in `users` order and are identical to
    /// issuing sequential [`ServingApi::try_recommend`] calls.
    fn recommend_many(
        &mut self,
        users: &[u32],
        query: &RecQuery,
    ) -> Result<Vec<RecResponse>, ServingError>;

    /// Barrier: block until every event ingested so far is reflected in
    /// serving state. A no-op on the synchronous plain engine.
    fn flush(&mut self) -> Result<(), ServingError>;

    /// Unified counters + per-event timings (merged across workers,
    /// with the per-shard breakdown attached where one exists).
    fn serving_stats(&mut self) -> Result<ServingStats, ServingError>;

    /// Serialize the complete serving state (whole-population per-user
    /// histories) into the engine-agnostic snapshot artifact. Implies a
    /// [`ServingApi::flush`] on queued engines.
    fn snapshot_state(&mut self) -> Result<Vec<u8>, ServingError>;
}

// Batches are validated up front with the engine's own admission
// checks (`RealtimeEngine::check_user`, `Sccf::check_query`) — in range
// *and owned* — so "atomic" holds on an engine that owns a subset too,
// and both implementations agree on edge cases like an unsatisfiable
// query over an empty user list.
impl<M: InductiveUiModel> ServingApi for RealtimeEngine<M> {
    fn try_ingest(&mut self, user: u32, item: u32) -> Result<Option<EventTiming>, ServingError> {
        self.apply_event(user, item)
            .map(Some)
            .map_err(ServingError::from)
    }

    fn ingest_batch(&mut self, events: &[(u32, u32)]) -> Result<u64, ServingError> {
        // Validate the whole batch before applying anything: atomic
        // failure, same contract as the sharded engine.
        let n_items = self.sccf().model().n_items();
        for &(user, item) in events {
            self.check_user(user)?;
            if item as usize >= n_items {
                return Err(ServingError::UnknownItem { item, n_items });
            }
        }
        for &(user, item) in events {
            self.apply_event(user, item).map_err(ServingError::from)?;
        }
        Ok(events.len() as u64)
    }

    fn try_recommend(&mut self, user: u32, query: &RecQuery) -> Result<RecResponse, ServingError> {
        self.recommend_query(user, query.k, query.source, &query.exclude)
            .map(|(items, timing)| RecResponse { items, timing })
            .map_err(ServingError::from)
    }

    fn recommend_many(
        &mut self,
        users: &[u32],
        query: &RecQuery,
    ) -> Result<Vec<RecResponse>, ServingError> {
        for &user in users {
            self.check_user(user)?;
        }
        self.sccf().check_query(query.source, &query.exclude)?;
        users
            .iter()
            .map(|&u| self.try_recommend(u, query))
            .collect()
    }

    fn flush(&mut self) -> Result<(), ServingError> {
        Ok(()) // synchronous engine: every ingest already applied
    }

    fn serving_stats(&mut self) -> Result<ServingStats, ServingError> {
        // `tier_search_ns` stays 0: the install-time probe that measures
        // it belongs to the sharded engine's refresh.
        let neighborhood =
            NeighborhoodStats::of_tier(self.sccf().global_tier(), self.events_since_tier_install());
        Ok(ServingStats {
            events: self.timings().infer.count(),
            recommends: self.recommends(),
            timings: self.timings().clone(),
            shards: Vec::new(),
            migration: MigrationStats::default(),
            neighborhood,
            durability: DurabilityStats::default(),
            pressure: PressureStats::default(),
            transport: TransportStats::default(),
        })
    }

    fn snapshot_state(&mut self) -> Result<Vec<u8>, ServingError> {
        Ok(self.snapshot())
    }
}

/// [`CandidateGen`] adapter over any [`ServingApi`] engine behind a
/// `Mutex`: the A/B harness's experiment bucket serves candidates
/// straight from the live engine, with zero engine-specific glue —
/// swap a plain engine for a sharded one without touching the
/// experiment. Errors (which only unknown ids can produce) yield an
/// empty slate, which the harness skips.
pub struct ApiCandidateGen<'e, E: ServingApi + Send>(pub &'e Mutex<E>);

impl<E: ServingApi + Send> CandidateGen for ApiCandidateGen<'_, E> {
    fn candidates(&self, user: u32, _history: &[u32], n: usize) -> Vec<u32> {
        let mut engine = self.0.lock().expect("engine lock");
        match engine.try_recommend(user, &RecQuery::top(n)) {
            Ok(res) => res.ids(),
            Err(_) => Vec::new(),
        }
    }
}
