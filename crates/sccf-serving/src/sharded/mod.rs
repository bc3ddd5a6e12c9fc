//! Sharded multi-writer realtime engine with live resharding.
//!
//! [`crate::stream`] replays events in one thread and PR 1 made each
//! event allocation-free — but a single-writer [`RealtimeEngine`] still
//! tops out at one core. This module scales ingestion the way
//! industrial neighborhood systems do: **partition users across shards**
//! through a deterministic router ([`crate::ring::HashRing`] — the
//! legacy modulo mapping or a consistent-hash ring with virtual nodes),
//! give every shard its own single-writer engine on a dedicated worker
//! thread, and feed each worker through a bounded SPSC event queue with
//! backpressure.
//!
//! ```text
//! try_ingest(user, item) ──► shard router (HashRing::route(user))
//!                               │ bounded SPSC queue per shard
//!        ┌──────────────────────┼──────────────────┐
//!        ▼                      ▼                  ▼
//!   shard 0 worker         shard 1 worker     shard N−1 worker
//!   RealtimeEngine         RealtimeEngine     RealtimeEngine
//!   + QueryScratch         + QueryScratch     + QueryScratch
//!        │                      │                  │
//!        └── Arc<SccfShared>: item embeddings, HNSW item index,
//!            integrator — one copy, read-only, shared by all shards
//! ```
//!
//! The engine is driven through the unified
//! [`ServingApi`] surface (typed queries,
//! `Result` everywhere, batch entry points, [`ServingStats`]). Invalid
//! ids are rejected at the router — they return
//! [`ServingError`] and never reach (or kill)
//! a worker.
//!
//! State split (the contract that keeps the hot path lock-free):
//!
//! * **Shared, read-only** (`Arc<SccfShared>`): item embeddings, the
//!   optional HNSW item index, the trained integrator, configuration.
//! * **Shard-local, single-writer**: the per-user histories, the cosine
//!   user index over *owned* users, the recent-item rings, and the
//!   engine's [`sccf_core::QueryScratch`] — so PR 1's zero-allocation
//!   invariant holds per shard, and no lock is ever contended on the
//!   event hot path. All four are *compact* (owned users only,
//!   slot↔global map at the boundary), so total serving-state memory
//!   across shards stays one population's worth.
//!
//! Because a user's events and recommendation requests all route to the
//! same queue, per-user ordering is preserved: a recommendation observes
//! every event the same caller ingested before it. Neighborhoods
//! (Eq. 11) are searched over the shard's own users — exact at `N = 1`
//! (bit-identical to the plain engine, pinned by `tests/sharded.rs`),
//! in-shard approximations for `N > 1`; see `docs/ARCHITECTURE.md`.
//!
//! ## Snapshot and offline resharding
//!
//! [`ShardedEngine::try_snapshot`] merges every shard's histories into
//! the same whole-population artifact [`RealtimeEngine::snapshot`]
//! writes ([`sccf_core::encode_histories`]), and
//! [`ShardedEngine::restore`] re-partitions that artifact under a *new*
//! [`ShardedConfig`] at load time. Offline resharding N→M is therefore
//! `try_snapshot()` on the old fleet + `restore(.., new_cfg)` on the
//! new — a full stop-the-world reload.
//!
//! ## Live resharding
//!
//! [`ShardedEngine::reshard`] transitions the fleet N→M **while
//! ingestion continues**. The router enters a *migration epoch*: users
//! whose shard changes under the new ring are handed off incrementally,
//! one bounded batch per [`ShardedEngine::reshard_step`], each moving
//! user's complete state travelling as one
//! [`sccf_core::encode_user_state`] blob
//! ([`RealtimeEngine::export_user`] → [`RealtimeEngine::import_user`])
//! over the same FIFO worker queues events use. Because the router is
//! the single writer of every queue, a moving user's events are either
//! queued ahead of her export (the source shard applies them before
//! exporting) or routed to her new shard behind her import — per-user
//! read-your-writes ordering holds end to end, and every event lands
//! exactly once. After the last batch the router *quiesces*: workers
//! canonicalize their slot layout, surplus workers retire (scale-in),
//! and the new ring becomes the stable one — from then on the fleet
//! is bit-identical to an offline `try_snapshot()` +
//! `restore(.., new_cfg)` of the same histories (pinned by
//! `tests/serving_api.rs`). [`ServingStats::migration`] exposes live
//! progress counters; the operational runbook is `docs/OPERATIONS.md`.
//!
//! ## Layout
//!
//! This file holds the config and report types, the router (placement,
//! validation, the backpressure-sensing `send`, and `scatter` — the
//! one send-a-wave-then-gather primitive) and the [`ServingApi`] impl.
//! `worker` is the shard thread and its message vocabulary; `epoch`
//! is the single in-flight slot that live reshards and tier refreshes
//! share; `durability` arms WALs, writes checkpoints and recovers.

mod durability;
mod epoch;
mod worker;

use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::{bounded, Sender, TrySendError};
use sccf_core::{
    decode_histories, encode_histories, CandidateSource, EngineTimings, Exclusion,
    GlobalNeighborSnapshot, RealtimeEngine, Sccf, SccfShared,
};
use sccf_models::InductiveUiModel;
use sccf_util::timer::Stopwatch;
use sccf_util::topk::Scored;

use self::durability::DurabilityState;
pub use self::durability::{DurabilityConfig, RecoveryReport};
use self::epoch::{Blocks, InFlight};
use self::worker::{join_worker, spawn_worker, AfterExport, ShardMsg, WorkerExit};
use crate::api::{
    MigrationStats, NeighborhoodStats, PressureStats, RecQuery, RecResponse, ServingApi,
    ServingError, ServingStats,
};
use crate::ring::{group_by_owner, reassemble, HashRing};

/// Which routing function maps users to shards (see
/// [`crate::ring::HashRing`] for the trade-off).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RouterKind {
    /// `FxHash(user) % n_shards` — the legacy router and the default.
    /// Perfect balance, but resharding N→M moves almost every user.
    #[default]
    Modulo,
    /// Consistent-hash ring with `vnodes` virtual nodes per shard.
    /// Resharding moves only the users whose ring arc changed hands
    /// (≈ `1 − N/M` on scale-out) — the router to deploy when the fleet
    /// is expected to [`ShardedEngine::reshard`] live. 64–128 vnodes is
    /// a good default.
    Consistent { vnodes: usize },
    /// A contiguous window of a `total`-shard global ring: this engine
    /// hosts global shards `[base, base + n_shards)` and rejects users
    /// outside the window with [`ServingError::NotOwned`]. `vnodes = 0`
    /// slices the global modulo ring; `vnodes > 0` slices a global
    /// consistent ring. This is the multi-process fleet's shard-server
    /// shape (`sccf serve-shard`): each process owns one window, the
    /// network router in front owns the whole ring, and placement is
    /// identical to a single `total`-shard process — the fleet's pinned
    /// equivalence. Slice engines cannot [`ShardedEngine::reshard`] or
    /// [`ShardedEngine::refresh_global_tier`] on their own (ownership
    /// and the population span processes); the fleet layer orchestrates
    /// those instead.
    Slice {
        total: usize,
        base: usize,
        vnodes: usize,
    },
}

/// Sharded-engine knobs.
#[derive(Debug, Clone)]
pub struct ShardedConfig {
    /// Number of worker shards. 1 reproduces the single-writer engine
    /// bit-for-bit. Must be ≥ 1.
    pub n_shards: usize,
    /// Bounded capacity of each shard's event queue. A full queue blocks
    /// the router — backpressure, never unbounded memory. Must be ≥ 1.
    pub queue_capacity: usize,
    /// The user→shard routing function. [`RouterKind::Modulo`] is the
    /// legacy-pinned default; choose [`RouterKind::Consistent`] when the
    /// fleet will be resharded live.
    pub router: RouterKind,
}

impl Default for ShardedConfig {
    fn default() -> Self {
        Self {
            n_shards: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                .clamp(1, 16),
            queue_capacity: 1024,
            router: RouterKind::Modulo,
        }
    }
}

impl ShardedConfig {
    /// Build this config's routing ring, validating the router knobs.
    pub fn ring(&self) -> Result<HashRing, ServingError> {
        if self.n_shards == 0 {
            return Err(ServingError::InvalidConfig(
                "n_shards must be ≥ 1".to_string(),
            ));
        }
        match self.router {
            RouterKind::Modulo => Ok(HashRing::modulo(self.n_shards)),
            RouterKind::Consistent { vnodes } => {
                if vnodes == 0 {
                    return Err(ServingError::InvalidConfig(
                        "consistent router needs vnodes ≥ 1".to_string(),
                    ));
                }
                Ok(HashRing::consistent(self.n_shards, vnodes))
            }
            RouterKind::Slice {
                total,
                base,
                vnodes,
            } => {
                if total == 0 {
                    return Err(ServingError::InvalidConfig(
                        "slice router needs a global ring of ≥ 1 shards".to_string(),
                    ));
                }
                if base
                    .checked_add(self.n_shards)
                    .is_none_or(|end| end > total)
                {
                    return Err(ServingError::InvalidConfig(format!(
                        "slice window [{base}, {base}+{}) exceeds the global ring of {total} \
                         shards",
                        self.n_shards
                    )));
                }
                let global = if vnodes == 0 {
                    HashRing::modulo(total)
                } else {
                    HashRing::consistent(total, vnodes)
                };
                Ok(HashRing::slice(global, base, self.n_shards))
            }
        }
    }
}

/// What one shard worker reports: the per-shard slice of
/// [`ServingStats`], also returned by [`ShardedEngine::shutdown`].
#[derive(Debug, Clone)]
pub struct ShardReport {
    pub shard: usize,
    /// Events ingested (each one re-inferred its user and rewrote her
    /// index row).
    pub events: u64,
    /// Recommendation requests served.
    pub recommends: u64,
    /// The shard engine's per-event split: infer vs index maintenance.
    pub timings: EngineTimings,
    /// Final report of a worker retired by a live scale-in. A later
    /// scale-out may re-spawn a worker under the same shard id, so
    /// consumers keying on `shard` must treat `(shard, retired)` as the
    /// key to avoid conflating a retired worker's life with its
    /// successor's.
    pub retired: bool,
    /// Capacity of the bounded queue this worker currently drains.
    /// Reshards swap surviving workers onto fresh queues when the new
    /// config's capacity differs, so this reflects the live value, not
    /// the spawn-time one.
    pub queue_capacity: usize,
    /// Users on this shard dirtied since their last tier export — the
    /// shard's share of the next refresh that splices into the
    /// installed tier ([`ShardedEngine::begin_refresh`]).
    pub tier_dirty: u64,
}

/// What one completed [`ShardedEngine::reshard`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReshardReport {
    pub from_shards: usize,
    pub to_shards: usize,
    /// Users whose owning shard changed (each handed off exactly once).
    pub moved_users: u64,
    /// Handoff batches the migration took.
    pub batches: u64,
}

/// Default users-per-batch for [`ShardedEngine::reshard`]. Ingestion
/// can stall for at most one batch's export+import, so this bounds the
/// worst-case router pause; [`ShardedEngine::begin_reshard`] takes an
/// explicit batch size for other trade-offs.
pub const DEFAULT_HANDOFF_BATCH: usize = 64;

/// Default users-per-batch for [`ShardedEngine::refresh_global_tier`].
/// Each [`ShardedEngine::refresh_step`] blocks the router for one
/// batch's export round trip (the workers encode the users' index rows
/// and histories), so — exactly like the reshard handoff batch — this bounds
/// the worst-case ingestion pause a background refresh can introduce.
pub const DEFAULT_REFRESH_BATCH: usize = 256;

/// What one completed [`ShardedEngine::refresh_global_tier`] did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefreshReport {
    /// The epoch of the snapshot now installed in every worker.
    pub epoch: u64,
    /// Users exported into the snapshot: the whole population when it
    /// was built fresh, only the dirty set when it was spliced.
    pub users: u64,
    /// Export batches the collection took.
    pub batches: u64,
    /// Wall time from `begin_refresh` to the install broadcast, ms.
    pub duration_ms: f64,
    /// The refresh spliced the dirty users into the tier this fleet's
    /// own refresh built ([`ShardedEngine::begin_refresh`] picks):
    /// unexported users kept their previous tier rows verbatim. False
    /// when it exported everyone and built fresh.
    pub delta: bool,
}

/// User-partitioned, multi-writer wrapper around N single-writer
/// [`RealtimeEngine`]s. See the [module docs](self) for the
/// architecture; drive it through the
/// [`ServingApi`] surface.
///
/// ```
/// use sccf_core::{FrozenTierMode, IntegratorConfig, Sccf, SccfConfig, UserBasedConfig};
/// use sccf_data::{Dataset, Interaction, LeaveOneOut};
/// use sccf_models::{Fism, FismConfig, TrainConfig};
/// use sccf_serving::api::{RecQuery, ServingApi};
/// use sccf_serving::sharded::{ShardedConfig, ShardedEngine};
///
/// // A tiny two-taste-group world.
/// let inter: Vec<Interaction> = (0..8u32)
///     .flat_map(|u| (0..4).map(move |t| Interaction {
///         user: u,
///         item: (u / 4) * 4 + (u + t) % 4,
///         ts: t as i64,
///     }))
///     .collect();
/// let data = Dataset::from_interactions("doc", 8, 8, &inter, None);
/// let split = LeaveOneOut::split(&data);
/// let fism = Fism::train(&split, &FismConfig {
///     train: TrainConfig { dim: 4, epochs: 2, ..Default::default() },
///     ..Default::default()
/// });
/// let sccf = Sccf::build(fism, &split, SccfConfig {
///     user_based: UserBasedConfig { beta: 3, recent_window: 4 },
///     candidate_n: 6,
///     integrator: IntegratorConfig { epochs: 2, ..Default::default() },
///     threads: 1,
///     ui_ann: None,
///     frozen_tier: FrozenTierMode::Flat,
/// });
/// let histories: Vec<Vec<u32>> = (0..8u32).map(|u| split.train_plus_val(u)).collect();
///
/// let mut engine = ShardedEngine::try_new(sccf, histories, ShardedConfig {
///     n_shards: 2,
///     queue_capacity: 64,
///     ..ShardedConfig::default()
/// }).expect("valid config");
/// engine.try_ingest(0, 5).expect("ids in range"); // routed by the config's ring
/// let recs = engine.try_recommend(0, &RecQuery::top(3)).expect("user 0 exists");
/// assert!(!recs.items.is_empty());                // same queue ⇒ sees the event
/// let stats = engine.serving_stats().expect("stats");
/// assert_eq!(stats.events, 1);
/// let reports = engine.shutdown();                // drains queues, joins workers
/// assert_eq!(reports.len(), 2);
/// assert_eq!(reports.iter().map(|r| r.events).sum::<u64>(), 1);
/// ```
pub struct ShardedEngine<M: InductiveUiModel + 'static> {
    txs: Vec<Sender<ShardMsg>>,
    /// `None` once a dead worker has been joined to surface its panic.
    handles: Vec<Option<JoinHandle<WorkerExit<M>>>>,
    /// The stable ring: owns every user, except those a reshard in
    /// flight has already handed off (see [`ShardedEngine::route`]).
    /// Its shard count is the fleet's stable shard count.
    ring: HashRing,
    /// The epoch slot: the one live reshard or tier refresh in flight,
    /// if any. A single field, so two epochs cannot overlap.
    in_flight: Option<InFlight>,
    /// Reports of workers retired by scale-in reshards; merged into
    /// stats and shutdown so event accounting stays complete.
    retired: Vec<ShardReport>,
    /// The item-side half, kept to seed empty shard views for workers
    /// spawned by scale-out reshards.
    shared: Arc<SccfShared<M>>,
    /// Router-side validation state: requests with out-of-range ids are
    /// rejected here, before they can reach (and kill) a worker.
    n_users: usize,
    n_items: usize,
    has_ann: bool,
    /// Lifetime migration counters (reported via `ServingStats`).
    migrated_users: u64,
    migration_batches: u64,
    /// The global neighbor snapshot currently installed in every
    /// worker (`None` ⇒ shard-local neighborhoods, the historical
    /// behavior). Kept here so workers spawned by a later scale-out
    /// receive the same tier.
    current_tier: Option<Arc<GlobalNeighborSnapshot>>,
    /// Monotone refresh-epoch counter (survives `clear_global_tier`).
    tier_epoch: u64,
    /// What the last completed refresh did (`None` before the first).
    last_refresh: Option<RefreshReport>,
    /// The installed tier was built by this fleet's own refresh
    /// pipeline, so the per-shard tier-dirty sets name exactly the rows
    /// differing from it, and the next refresh splices into it. False
    /// with no tier and after `install_global_tier` (the artifact's
    /// provenance is unknown), until the next refresh — then a full
    /// one — completes.
    tier_delta_ok: bool,
    /// Mean ns of one frozen-tier search, probed at tier install
    /// (reported via `ServingStats`; 0 with no tier).
    tier_search_ns: f64,
    /// Events accepted by the router over the fleet's life, and the
    /// value of that counter when the current tier was installed —
    /// their difference is the tier's staleness in events. With
    /// durability armed this doubles as the WAL sequence counter
    /// (event k gets `seq = k`, 1-based); recovery fast-forwards it
    /// past every surviving record so sequences never collide.
    events_routed: u64,
    events_at_refresh: u64,
    /// Current per-shard queue capacity: the most recent config's
    /// value, applied to every live worker (reshards swap surviving
    /// workers' queues when it changes).
    queue_capacity: usize,
    /// Router-side backpressure accounting (see
    /// [`crate::api::PressureStats`]): total sends, sends that found a
    /// full queue and blocked, and the wall time spent blocked.
    sends: u64,
    stalls: u64,
    stall_ms: f64,
    /// Deepest any shard queue stood at a send since the last stats
    /// sample (read-and-clear in [`ServingApi::serving_stats`]).
    peak_queue: usize,
    /// Durability layer, if armed (see
    /// [`ShardedEngine::enable_durability`]).
    durability: Option<DurabilityState>,
}

impl<M: InductiveUiModel + 'static> ShardedEngine<M> {
    /// Partition a built framework into `cfg.n_shards` workers.
    ///
    /// `histories` must be the users' current full histories — the same
    /// source-of-truth contract as [`RealtimeEngine::new`] and
    /// [`RealtimeEngine::restore`]; every shard's per-user state is
    /// derived from it via [`Sccf::into_shards`]. Rejects zero shards,
    /// zero queue capacity, zero-vnode consistent routers, history
    /// tables of the wrong size and out-of-catalog item ids with
    /// [`ServingError`] instead of panicking (or spawning workers that
    /// would).
    pub fn try_new(
        sccf: Sccf<M>,
        histories: Vec<Vec<u32>>,
        cfg: ShardedConfig,
    ) -> Result<Self, ServingError> {
        if cfg.queue_capacity == 0 {
            return Err(ServingError::InvalidConfig(
                "queue_capacity must be ≥ 1".to_string(),
            ));
        }
        let ring = cfg.ring()?;
        let n_users = sccf.user_count();
        if histories.len() != n_users {
            return Err(ServingError::InvalidConfig(format!(
                "history table has {} entries for a population of {n_users}",
                histories.len()
            )));
        }
        let n_items = sccf.model().n_items();
        for h in &histories {
            if let Some(&bad) = h.iter().find(|&&i| i as usize >= n_items) {
                return Err(ServingError::UnknownItem { item: bad, n_items });
            }
        }
        let has_ann = sccf.config().ui_ann.is_some();
        let shared = Arc::clone(sccf.shared());
        let n = cfg.n_shards;
        // A slice ring assigns only its window's users (`try_route` is
        // `None` elsewhere); whole rings assign everyone.
        let shards = sccf.into_shard_slice(&histories, n, |u| ring.try_route(u));
        // Move each user's history into the owning shard's full-length
        // table; the shard engine compacts it to owned slots on
        // construction, so the O(shards × users) layout is transient.
        let mut per_shard: Vec<Vec<Vec<u32>>> = (0..n).map(|_| vec![Vec::new(); n_users]).collect();
        for (u, h) in histories.into_iter().enumerate() {
            if let Some(s) = ring.try_route(u as u32) {
                per_shard[s][u] = h;
            }
        }
        let (txs, handles) = shards
            .into_iter()
            .zip(per_shard)
            .enumerate()
            .map(|(s, (shard_sccf, shard_histories))| {
                let engine = RealtimeEngine::new(shard_sccf, shard_histories);
                let (tx, handle) = spawn_worker(s, engine, cfg.queue_capacity);
                (tx, Some(handle))
            })
            .unzip();
        Ok(Self {
            txs,
            handles,
            ring,
            in_flight: None,
            retired: Vec::new(),
            shared,
            n_users,
            n_items,
            has_ann,
            migrated_users: 0,
            migration_batches: 0,
            current_tier: None,
            tier_epoch: 0,
            last_refresh: None,
            tier_delta_ok: false,
            tier_search_ns: 0.0,
            events_routed: 0,
            events_at_refresh: 0,
            queue_capacity: cfg.queue_capacity,
            sends: 0,
            stalls: 0,
            stall_ms: 0.0,
            peak_queue: 0,
            durability: None,
        })
    }

    /// Rehydrate a sharded fleet from a snapshot artifact
    /// ([`ShardedEngine::try_snapshot`] or [`RealtimeEngine::snapshot`] —
    /// the format is shared) under `cfg`, re-partitioning the users at
    /// load time. `cfg.n_shards` is free to differ from the snapshot's
    /// source fleet: this is offline resharding N→M (a full reload; see
    /// [`ShardedEngine::reshard`] for the no-downtime path).
    pub fn restore(sccf: Sccf<M>, bytes: &[u8], cfg: ShardedConfig) -> Result<Self, ServingError> {
        let histories = decode_histories(bytes)?;
        Self::try_new(sccf, histories, cfg)
    }

    /// The stable shard count. While a migration is in flight this is
    /// still the *pre-migration* count — it flips to the target count
    /// when the migration quiesces.
    pub fn n_shards(&self) -> usize {
        self.ring.n_shards()
    }

    /// How many messages a request for `user` would wait behind right
    /// now: the current depth of the owning shard's queue. This is the
    /// core-count-independent serving-latency proxy — a recommend is
    /// answered FIFO behind this backlog, so on a parallel host its
    /// queueing delay is proportional to this number, while wall-clock
    /// measurements additionally depend on how many worker threads the
    /// OS can actually run at once.
    pub fn queue_depth_for(&self, user: u32) -> usize {
        self.txs[self.route(user)].len()
    }

    /// The shard `user`'s messages go to right now: the stable ring's
    /// choice, unless a reshard in flight has already handed her off
    /// to her new shard.
    fn route(&self, user: u32) -> usize {
        self.in_flight
            .as_ref()
            .and_then(|epoch| epoch.moved_to(user))
            .unwrap_or_else(|| self.ring.route(user))
    }

    /// A send failed, so shard `s`'s worker is gone: join it and
    /// re-raise its original panic payload (not a generic router
    /// message) so the root cause reaches the caller's logs.
    fn propagate_worker_death(&mut self, s: usize) -> ! {
        match self.handles[s].take() {
            Some(h) => match h.join() {
                Err(payload) => std::panic::resume_unwind(payload),
                Ok(_) => panic!("shard {s} worker exited early without panicking"),
            },
            None => panic!("shard {s} worker already joined after an earlier failure"),
        }
    }

    fn check_user(&self, user: u32) -> Result<usize, ServingError> {
        if (user as usize) >= self.n_users {
            return Err(ServingError::UnknownUser {
                user,
                n_users: self.n_users,
            });
        }
        let s = self.route(user);
        // A slice ring routes users outside its window past the local
        // shard count — this process does not host them.
        if s >= self.txs.len() {
            return Err(ServingError::NotOwned { user });
        }
        Ok(s)
    }

    fn check_item(&self, item: u32) -> Result<(), ServingError> {
        if (item as usize) < self.n_items {
            Ok(())
        } else {
            Err(ServingError::UnknownItem {
                item,
                n_items: self.n_items,
            })
        }
    }

    fn check_query(&self, query: &RecQuery) -> Result<(), ServingError> {
        if query.source == CandidateSource::Ann && !self.has_ann {
            return Err(ServingError::AnnUnavailable);
        }
        if let Exclusion::HistoryAnd(extra) = &query.exclude {
            for &i in extra {
                self.check_item(i)?;
            }
        }
        Ok(())
    }

    /// Push a message onto shard `s`'s queue, sensing backpressure on
    /// the way: a non-blocking attempt first, and only when the queue
    /// is full — the one observable symptom of an overloaded worker —
    /// fall back to the blocking send, counting the stall and the time
    /// blocked. `stalls / sends` is the autoscaling policy's pressure
    /// signal ([`crate::api::PressureStats`]); queue *backlog* is
    /// unobservable from here (any probe rides the same FIFO queue), so
    /// blocked sends are the honest router-side measure.
    fn send(&mut self, s: usize, msg: ShardMsg) {
        self.sends += 1;
        let depth = self.txs[s].len();
        if depth > self.peak_queue {
            self.peak_queue = depth;
        }
        match self.txs[s].try_send(msg) {
            Ok(()) => {}
            Err(TrySendError::Disconnected(_)) => self.propagate_worker_death(s),
            Err(TrySendError::Full(msg)) => {
                self.stalls += 1;
                let sw = Stopwatch::start();
                if self.txs[s].send(msg).is_err() {
                    self.propagate_worker_death(s);
                }
                self.stall_ms += sw.elapsed_ms();
            }
        }
    }

    /// The one wave primitive: send one message to each target shard —
    /// so the shards work in parallel — then gather one reply per
    /// target, in target order. `make` builds a target's message from
    /// its payload and the reply handle.
    fn scatter<P, R>(
        &mut self,
        targets: impl IntoIterator<Item = (usize, P)>,
        make: impl Fn(P, Sender<R>) -> ShardMsg,
    ) -> Vec<R> {
        let mut wave = Vec::new();
        for (s, payload) in targets {
            let (reply, rx) = bounded(1);
            self.send(s, make(payload, reply));
            wave.push((s, rx));
        }
        wave.into_iter()
            .map(|(s, rx)| match rx.recv() {
                Ok(v) => v,
                Err(_) => self.propagate_worker_death(s),
            })
            .collect()
    }

    /// [`ShardedEngine::scatter`] to every live worker (including
    /// mid-migration extras); replies in shard order.
    fn fan_out<R>(&mut self, make: impl Fn(Sender<R>) -> ShardMsg) -> Vec<R> {
        let every_shard = (0..self.txs.len()).map(|s| (s, ()));
        self.scatter(every_shard, |(), reply| make(reply))
    }

    /// The user's current merged Eq. 11 neighborhood (global ids),
    /// computed on her owning shard behind her queued events —
    /// diagnostics for the cross-shard equivalence tests and the
    /// quality bench.
    pub fn neighbors_of(&mut self, user: u32) -> Result<Vec<Scored>, ServingError> {
        let s = self.check_user(user)?;
        self.scatter([(s, user)], |user, reply| ShardMsg::Neighbors {
            user,
            reply,
        })
        .pop()
        .expect("one target, one reply")
    }

    /// Export the listed users' state blobs
    /// ([`sccf_core::encode_user_state`] format) **without evicting**
    /// — each shard keeps serving its users; the caller reads a
    /// consistent copy behind every event queued before this call.
    /// Blobs come back in the order of `users`. This is the
    /// building block of the *fleet-level* tier refresh: the network
    /// router collects every process's window, builds one
    /// whole-population [`GlobalNeighborSnapshot`], and installs it
    /// back via [`ShardedEngine::install_global_tier`].
    ///
    /// Rejects out-of-population ids with
    /// [`ServingError::UnknownUser`] and — on a slice engine — users
    /// outside this process's window with [`ServingError::NotOwned`],
    /// before exporting anything.
    pub fn export_user_states(&mut self, users: &[u32]) -> Result<Vec<Vec<u8>>, ServingError> {
        // Validate everything first: an error means nothing was exported.
        for &u in users {
            self.check_user(u)?;
        }
        let (targets, layout): (Vec<_>, Vec<_>) =
            group_by_owner(users.iter().copied(), |&u| self.route(u))
                .into_iter()
                .map(|g| ((g.owner, g.items), (g.owner, g.positions)))
                .unzip();
        let exported = self.scatter(targets, |users, reply| ShardMsg::ExportUsers {
            users,
            then: AfterExport::Keep,
            reply,
        });
        reassemble(layout, exported)
    }

    /// Drain every shard and serialize the merged per-user histories
    /// into one whole-population artifact — the same format as
    /// [`RealtimeEngine::snapshot`], so any engine shape restores it:
    /// [`RealtimeEngine::restore`] (N→1 to a plain engine) or
    /// [`ShardedEngine::restore`] with a different shard count (offline
    /// resharding N→M). The export rides each shard's FIFO queue, so it
    /// acts as its own barrier: every event ingested before this call
    /// is in the artifact.
    ///
    /// Rejects with [`ServingError::EpochInFlight`] while a live
    /// reshard or a tier refresh is running: mid-epoch the fleet's
    /// layout is transitional (users mid-handoff, a half-collected
    /// tier), and an artifact cut there is a state no uninterrupted
    /// engine ever held — the same reason `begin_reshard` and
    /// `begin_refresh` reject each other. Finish or step the epoch to
    /// completion first.
    pub fn try_snapshot(&mut self) -> Result<Vec<u8>, ServingError> {
        self.idle_for("snapshot", Blocks::AnyEpoch)?;
        let exports = self.fan_out(|reply| ShardMsg::Export { reply });
        let mut full: Vec<Vec<u32>> = vec![Vec::new(); self.n_users];
        for (user, history) in exports.into_iter().flatten() {
            full[user as usize] = history;
        }
        Ok(encode_histories(&full))
    }

    /// Graceful shutdown: close every queue, let the workers drain what
    /// remains, join them, and return the per-shard reports (sorted by
    /// shard id; includes workers retired by earlier scale-in
    /// reshards, so event accounting is complete across the fleet's
    /// whole life).
    pub fn shutdown(self) -> Vec<ShardReport> {
        self.shutdown_into_engines().1
    }

    /// [`ShardedEngine::shutdown`], additionally handing back the shard
    /// engines (e.g. to snapshot their state or unwrap the model).
    /// Retired workers contribute reports but no engine — theirs were
    /// empty and dropped at retirement.
    pub fn shutdown_into_engines(self) -> (Vec<RealtimeEngine<M>>, Vec<ShardReport>) {
        drop(self.txs); // workers see the disconnect after draining
        let mut engines = Vec::with_capacity(self.handles.len());
        let mut reports = self.retired;
        for h in self.handles.into_iter().flatten() {
            let (engine, report) = join_worker(h);
            engines.push(engine);
            reports.push(report);
        }
        reports.sort_by_key(|r| r.shard);
        (engines, reports)
    }
}

impl<M: InductiveUiModel + 'static> ServingApi for ShardedEngine<M> {
    /// Route to the owning shard and return (`Ok(None)` — processing is
    /// asynchronous). Blocks only when that shard's queue is full
    /// (backpressure). Inference and the index-row update happen on the
    /// worker thread; the neighbor search waits for a slate request.
    fn try_ingest(
        &mut self,
        user: u32,
        item: u32,
    ) -> Result<Option<sccf_core::EventTiming>, ServingError> {
        let s = self.check_user(user)?;
        self.check_item(item)?;
        self.events_routed += 1;
        let seq = self.events_routed;
        self.send(s, ShardMsg::Event { seq, user, item });
        self.maybe_auto_checkpoint()?;
        Ok(None)
    }

    fn ingest_batch(&mut self, events: &[(u32, u32)]) -> Result<u64, ServingError> {
        // Validate the whole batch before routing anything: an error
        // means no event was applied.
        for &(user, item) in events {
            self.check_user(user)?;
            self.check_item(item)?;
        }
        for &(user, item) in events {
            let s = self.route(user);
            self.events_routed += 1;
            let seq = self.events_routed;
            self.send(s, ShardMsg::Event { seq, user, item });
        }
        self.maybe_auto_checkpoint()?;
        Ok(events.len() as u64)
    }

    /// Computed on the owning shard with its reusable scratch. Queued
    /// behind the user's earlier events, so it observes everything this
    /// caller already ingested.
    fn try_recommend(&mut self, user: u32, query: &RecQuery) -> Result<RecResponse, ServingError> {
        let s = self.check_user(user)?;
        self.check_query(query)?;
        let query = Arc::new(query.clone());
        self.scatter([(s, user)], |user, reply| ShardMsg::Recommend {
            user,
            query: Arc::clone(&query),
            reply,
        })
        .pop()
        .expect("one target, one reply")
    }

    /// All requests fan out before any reply is collected, so shards
    /// compute in parallel and the queue crossing cost is paid once per
    /// wave, not once per user.
    fn recommend_many(
        &mut self,
        users: &[u32],
        query: &RecQuery,
    ) -> Result<Vec<RecResponse>, ServingError> {
        for &user in users {
            self.check_user(user)?;
        }
        self.check_query(query)?;
        let query = Arc::new(query.clone());
        let targets: Vec<(usize, u32)> = users.iter().map(|&u| (self.route(u), u)).collect();
        self.scatter(targets, |user, reply| ShardMsg::Recommend {
            user,
            query: Arc::clone(&query),
            reply,
        })
        .into_iter()
        .collect()
    }

    /// Barrier: block until every shard has processed everything queued
    /// so far. The barrier message fans out first, so shards drain in
    /// parallel.
    fn flush(&mut self) -> Result<(), ServingError> {
        self.fan_out(|reply| ShardMsg::Drain { reply });
        Ok(())
    }

    /// Live per-shard counters and timings, merged into the unified
    /// shape. Rides the queues, so it reflects every event ingested
    /// before the call. Includes retired workers' reports and the
    /// [`MigrationStats`] progress counters.
    fn serving_stats(&mut self) -> Result<ServingStats, ServingError> {
        let mut shards = self.fan_out(|reply| ShardMsg::Stats { reply });
        shards.extend(self.retired.iter().cloned());
        shards.sort_by_key(|r| r.shard);
        let mut stats = ServingStats::from_shards(shards);
        stats.migration = MigrationStats {
            in_progress: self.is_migrating(),
            migrated_users: self.migrated_users,
            pending_users: self
                .in_flight
                .as_ref()
                .filter(|_| self.is_migrating())
                .map_or(0, |epoch| epoch.remaining() as u64),
            batches: self.migration_batches,
        };
        stats.neighborhood = NeighborhoodStats {
            last_refresh_ms: self.last_refresh.map_or(0.0, |r| r.duration_ms),
            refresh_in_progress: self.is_refreshing(),
            tier_search_ns: self.tier_search_ns,
            last_refresh_users: self.last_refresh.map_or(0, |r| r.users),
            delta_ready: self.tier_delta_ok,
            ..NeighborhoodStats::of_tier(
                self.current_tier.as_deref(),
                self.events_routed - self.events_at_refresh,
            )
        };
        stats.pressure = PressureStats {
            sends: self.sends,
            stalls: self.stalls,
            stall_ms: self.stall_ms,
            queue_capacity: self.queue_capacity as u64,
            peak_queue: self.peak_queue as u64,
        };
        // The high-water mark is per sampling window: each stats
        // sample starts a fresh window so occupancy reflects current
        // load, not the worst moment in history.
        self.peak_queue = 0;
        stats.durability = self.durability_stats();
        Ok(stats)
    }

    fn snapshot_state(&mut self) -> Result<Vec<u8>, ServingError> {
        self.try_snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modulo_and_consistent_rings_route_deterministically() {
        for cfg in [
            ShardedConfig {
                n_shards: 4,
                queue_capacity: 1,
                router: RouterKind::Modulo,
            },
            ShardedConfig {
                n_shards: 4,
                queue_capacity: 1,
                router: RouterKind::Consistent { vnodes: 32 },
            },
        ] {
            let ring = cfg.ring().expect("valid router");
            for u in 0..500u32 {
                let s = ring.route(u);
                assert!(s < 4);
                assert_eq!(s, ring.route(u), "same user, same shard");
            }
        }
    }

    #[test]
    fn degenerate_router_configs_are_rejected() {
        let zero_vnodes = ShardedConfig {
            n_shards: 2,
            queue_capacity: 8,
            router: RouterKind::Consistent { vnodes: 0 },
        };
        assert!(matches!(
            zero_vnodes.ring(),
            Err(ServingError::InvalidConfig(_))
        ));
        let zero_shards = ShardedConfig {
            n_shards: 0,
            queue_capacity: 8,
            router: RouterKind::Modulo,
        };
        assert!(matches!(
            zero_shards.ring(),
            Err(ServingError::InvalidConfig(_))
        ));
    }
}
