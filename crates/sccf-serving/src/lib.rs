//! # sccf-serving
//!
//! Serving-side machinery around the `sccf-core` engine:
//!
//! * [`api`] — **the unified serving surface**: the [`ServingApi`]
//!   trait (typed [`RecQuery`]/[`RecResponse`], [`ServingError`]
//!   instead of panics, batch entry points, unified [`ServingStats`])
//!   implemented by both the single-writer
//!   [`sccf_core::RealtimeEngine`] and the sharded [`ShardedEngine`].
//!   Everything downstream — stream replay, the A/B harness, benches,
//!   examples — drives engines through this one interface.
//! * [`stream`] — the chronological event replayer (flattens a dataset
//!   into the globally time-ordered stream the Table III measurement and
//!   all serving demos consume); [`replay_into`] feeds it to any
//!   [`ServingApi`] engine.
//! * [`ring`] — deterministic user→shard routing as a value:
//!   [`HashRing`] wraps the legacy modulo mapping and a consistent-hash
//!   ring with virtual nodes behind one `route(user)` function,
//!   snapshot-encodable so a routing epoch can be persisted alongside
//!   state snapshots.
//! * [`sharded`] — the sharded multi-writer realtime engine:
//!   [`ShardedEngine`] partitions users across N worker threads by a
//!   [`HashRing`], each owning a single-writer
//!   [`sccf_core::RealtimeEngine`] fed by a bounded SPSC queue, over one
//!   shared read-only item-side half (`Arc<sccf_core::SccfShared>`).
//!   `N = 1` is bit-identical to the plain engine; snapshot/restore
//!   re-partitions at load time (offline resharding N→M), and
//!   [`ShardedEngine::reshard`] re-partitions **live** — incremental
//!   per-user handoff while ingestion continues.
//!   [`ShardedEngine::refresh_global_tier`] turns the fleet's Eq. 11
//!   neighborhoods *two-tier*: every shard merges its fresh local
//!   delta with an epoch-swapped frozen whole-population snapshot
//!   (`sccf_core::neighbor`), recovering the recall the in-shard
//!   approximation gives up while keeping writes shard-local. See
//!   `docs/ARCHITECTURE.md` for the event-flow diagram, state split
//!   and tier diagram; `docs/OPERATIONS.md` for the
//!   scale-out/scale-in and refresh-cadence runbooks.
//! * [`control`] — the **closed-loop control plane**: [`PolicyState`]
//!   is a pure, wall-clock-free decision function (hysteresis bands +
//!   sustain streaks + cooldowns over the router stall ratio and tier
//!   staleness), and [`ControlDriver`] actuates it against a
//!   [`ShardedEngine`] one step per virtual tick — begin/advance
//!   reshard and refresh epochs automatically, preferring *delta*
//!   tier refreshes (dirty users only) once the fleet has built its
//!   own tier. Every decision replays exactly from an observation
//!   sequence; `tests/control.rs` is the seeded simulation harness.
//! * [`fleet`] — the socket-free half of the **networked shard
//!   fleet**: [`FleetTopology`] validates that N processes' shard
//!   windows tile one global [`HashRing`] (so user placement is
//!   identical to a single N-shard process), and
//!   [`merge_fleet_snapshots`] / [`merge_fleet_stats`] stitch
//!   per-process artifacts back into the single-engine view —
//!   byte-identical for snapshots. The wire protocol, process roles
//!   and supervisor build on this in the `sccf-net` crate.
//! * [`wal`] — the durability layer's on-disk formats: per-shard
//!   checksummed write-ahead logs and atomic incremental checkpoints.
//!   [`ShardedEngine::enable_durability`] arms it, periodic
//!   [`ShardedEngine::checkpoint`]s bound replay, and
//!   [`ShardedEngine::recover`] rebuilds a crashed fleet bit-identical
//!   to one that never crashed (newest checkpoint chain + WAL replay,
//!   torn tails truncated at the first bad frame). See
//!   `docs/OPERATIONS.md` for the runbook.
//! * [`click_model`] — the behavioral click/trade model.
//! * [`ab_test`] — the two-bucket A/B experiment harness that
//!   regenerates Table V. The judge of the A/B test is the synthetic
//!   generator's ground-truth latent state — never a learned model — so
//!   neither bucket can win by flattering its own scorer.
//!   [`ApiCandidateGen`] plugs any [`ServingApi`] engine in as the
//!   experiment bucket's candidate stage.

pub mod ab_test;
pub mod api;
pub mod click_model;
pub mod control;
pub mod fleet;
pub mod ring;
pub mod sharded;
pub mod stream;
pub mod wal;

pub use ab_test::{
    run_ab_test, run_bucket, split_buckets, AbResult, AbTestConfig, BucketOutcome, CandidateGen,
    FnCandidateGen,
};
pub use api::{
    ApiCandidateGen, DurabilityStats, MigrationStats, NeighborhoodStats, PressureStats, RecQuery,
    RecResponse, ServingApi, ServingError, ServingStats, TransportStats,
};
pub use click_model::ClickModel;
pub use control::{
    ActuatorStep, ControlDriver, Decision, Observation, PolicyConfig, PolicyState, TickReport,
};
pub use fleet::{merge_fleet_snapshots, merge_fleet_stats, FleetMember, FleetTopology};
pub use ring::HashRing;
pub use sharded::{
    DurabilityConfig, RecoveryReport, RefreshReport, ReshardReport, RouterKind, ShardReport,
    ShardedConfig, ShardedEngine,
};
pub use stream::{events_after, replay_events, replay_into, StreamEvent};
pub use wal::{WalError, WalRecord, WalStatus};
