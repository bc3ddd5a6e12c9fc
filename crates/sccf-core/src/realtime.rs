//! The real-time serving engine (§III-C.2, §IV-D).
//!
//! The paper's loop is *infer on the fly → identify neighbours →
//! recommend*, and Table III times its two legs:
//!
//! 1. **Inferring** — run the inductive UI model on the updated history
//!    to get the fresh `m_u` (milliseconds; no training).
//! 2. **Identifying** — update the user index and search it for the new
//!    β-neighborhood.
//!
//! An ingested event ([`RealtimeEngine::apply_event`]) pays leg 1 and
//! the index update only; the search is paid by the request for a slate
//! ([`RealtimeEngine::recommend_query`]), which needs it, rather than by
//! every click, which would throw it away.
//! [`RealtimeEngine::try_process_event`] runs both per event — the
//! Table III form, whose comparison against UserKNN (whose "identifying"
//! step is a full sparse-set scan that grows with catalog size) drops
//! out of the same run.

use std::sync::Arc;

use sccf_models::InductiveUiModel;
use sccf_util::codec::{put_f32s, put_u32, put_u32s, put_u64, DecodeError, Reader};
use sccf_util::hash::FxHashSet;
use sccf_util::timer::{Stopwatch, TimingStats};
use sccf_util::topk::Scored;

use crate::framework::{CandidateSource, Exclusion, QueryError, QueryScratch, Sccf};
use crate::neighbor::{GlobalNeighborSnapshot, TierMismatch};

/// Timing breakdown of one event or one slate, in milliseconds.
#[derive(Debug, Clone, Copy)]
pub struct EventTiming {
    /// Inferring `m_u` from the history.
    pub infer_ms: f64,
    /// Everything after inference: the index-row update for an applied
    /// event, plus the Eq. 11 search for `try_process_event`; search,
    /// candidates and fusion for a slate.
    pub identify_ms: f64,
}

impl EventTiming {
    pub fn total_ms(&self) -> f64 {
        self.infer_ms + self.identify_ms
    }
}

/// Aggregated engine timings (Table III rows).
#[derive(Debug, Clone, Default)]
pub struct EngineTimings {
    pub infer: TimingStats,
    pub identify: TimingStats,
}

impl EngineTimings {
    pub fn record(&mut self, t: EventTiming) {
        self.infer.record_ms(t.infer_ms);
        self.identify.record_ms(t.identify_ms);
    }

    pub fn mean_total_ms(&self) -> f64 {
        self.infer.mean_ms() + self.identify.mean_ms()
    }

    /// Fold another engine's timing split into this one — per-shard
    /// reports merge into the fleet-wide Table III row of
    /// `sccf_serving::api::ServingStats`.
    pub fn merge(&mut self, other: &EngineTimings) {
        self.infer.merge(&other.infer);
        self.identify.merge(&other.identify);
    }
}

/// Streaming wrapper around a built [`Sccf`] view: it holds the state
/// of the users the view owns — everyone for [`Sccf::build`], one
/// shard's users for [`Sccf::into_shards`] — and refuses the rest with
/// [`QueryError::NotOwned`].
///
/// The engine owns one [`QueryScratch`]; every recommendation reuses it,
/// so steady-state serving performs no heap allocation proportional to
/// the catalog (see the `sccf-core` crate docs for the full contract).
///
/// The typed, fallible entry points ([`RealtimeEngine::apply_event`],
/// [`RealtimeEngine::recommend_query`]) are the primary surface — the
/// serving layer's `ServingApi` rides on them.
pub struct RealtimeEngine<M: InductiveUiModel> {
    sccf: Sccf<M>,
    /// Per-user histories, grown as events arrive and addressed by the
    /// view's compact owned-user *slot* (the slot↔global map lives in
    /// the `Sccf`). An engine therefore stores only its own users'
    /// histories, while snapshots still round-trip whole-population
    /// through the map.
    histories: Vec<Vec<u32>>,
    timings: EngineTimings,
    /// Recommendation requests served (reported via `ServingStats`).
    recommends: u64,
    /// Events already ingested when the current global tier was
    /// installed — `events - tier_events_at_install` is the tier's
    /// staleness in events (reported via `ServingStats::neighborhood`).
    tier_events_at_install: u64,
    /// Global ids of users whose state changed since the last
    /// [`RealtimeEngine::drain_dirty_users`] — the incremental-checkpoint
    /// working set of the durability layer. Marked on event ingest and
    /// migration import, dropped on evict (the receiving shard marks the
    /// user instead).
    dirty: FxHashSet<u32>,
    /// Global ids of users whose state changed since their last
    /// [`RealtimeEngine::ack_tier_export`] — the *delta-refresh* working
    /// set of the frozen global tier. Tracked independently of `dirty`
    /// because checkpoints and tier refreshes clear on their own
    /// cadences; marked at exactly the same sites, so the set names
    /// precisely the users whose tier row could differ from the last
    /// refresh watermark.
    tier_dirty: FxHashSet<u32>,
    scratch: QueryScratch,
}

impl<M: InductiveUiModel> RealtimeEngine<M> {
    /// Wrap a built framework with the users' current histories
    /// (whole-population, indexed by global user id). The owned users'
    /// entries move into the compact slot layout; the rest are dropped
    /// — their state lives on their owning shard.
    ///
    /// Precondition: every owned user's index row is the representation
    /// of her entry in `histories` — the state [`Sccf::refresh_for_test`],
    /// [`Sccf::into_shards`] and [`RealtimeEngine::restore`] derive from
    /// the same histories. The engine never infers again for a user
    /// whose history has not changed: slates, neighbourhoods and
    /// exports read the row.
    pub fn new(sccf: Sccf<M>, mut histories: Vec<Vec<u32>>) -> Self {
        let histories = sccf
            .owned_globals()
            .iter()
            .map(|&g| std::mem::take(&mut histories[g as usize]))
            .collect();
        let scratch = sccf.new_scratch();
        Self {
            sccf,
            histories,
            timings: EngineTimings::default(),
            recommends: 0,
            tier_events_at_install: 0,
            dirty: FxHashSet::default(),
            tier_dirty: FxHashSet::default(),
            scratch,
        }
    }

    pub fn sccf(&self) -> &Sccf<M> {
        &self.sccf
    }

    /// Tear down the engine, returning the framework (repeated simulation
    /// runs rebuild a fresh engine from pristine state).
    pub fn into_sccf(self) -> Sccf<M> {
        self.sccf
    }

    /// The user's current history; users this engine does not own
    /// report an empty one (their state lives elsewhere).
    pub fn history(&self, user: u32) -> &[u32] {
        match self.sccf.slot_of(user) {
            Some(slot) => &self.histories[slot as usize],
            None => &[],
        }
    }

    pub fn timings(&self) -> &EngineTimings {
        &self.timings
    }

    /// Recommendation requests served through the typed path.
    pub fn recommends(&self) -> u64 {
        self.recommends
    }

    /// Whether this engine holds `user`'s state, i.e. whether
    /// [`RealtimeEngine::check_user`] admits her.
    pub fn owns(&self, user: u32) -> bool {
        self.check_user(user).is_ok()
    }

    /// Install a frozen global neighbor tier: Eq. 11 queries merge it
    /// with this engine's live per-user state from the next event on
    /// (see [`crate::neighbor`]), so users the engine does not own can
    /// be neighbors — an engine that owns everyone gains none and skips
    /// the frozen scan. On a shard worker this is driven by the sharded
    /// engine's refresh epoch; the swap is one `Arc` store, so it never
    /// stalls the event loop.
    ///
    /// Rejects — installing nothing — a tier that does not fit this
    /// engine's population, vector dimension or catalog
    /// ([`GlobalNeighborSnapshot::check_fits`]).
    pub fn install_global_tier(
        &mut self,
        tier: Arc<GlobalNeighborSnapshot>,
    ) -> Result<(), TierMismatch> {
        let model = self.sccf.model();
        tier.check_fits(self.sccf.user_count(), model.dim(), model.n_items())?;
        self.tier_events_at_install = self.timings.infer.count();
        self.sccf.set_global_tier(tier);
        Ok(())
    }

    /// Remove the global tier: neighborhoods return to the purely
    /// local scan, bit-identical to an engine that never had one.
    pub fn clear_global_tier(&mut self) {
        self.tier_events_at_install = 0;
        self.sccf.clear_global_tier();
    }

    /// Events ingested since the installed global tier was installed —
    /// its staleness (the installed tier is [`Sccf::global_tier`]).
    pub fn events_since_tier_install(&self) -> u64 {
        self.timings.infer.count() - self.tier_events_at_install
    }

    /// The admission check of every per-user entry point: the slot
    /// holding `user`'s state, or the typed reason there is none —
    /// outside the population ([`QueryError::UnknownUser`]) or owned by
    /// another engine ([`QueryError::NotOwned`]).
    pub fn check_user(&self, user: u32) -> Result<usize, QueryError> {
        let n_users = self.sccf.user_count();
        if user as usize >= n_users {
            return Err(QueryError::UnknownUser { user, n_users });
        }
        let slot = self
            .sccf
            .slot_of(user)
            .ok_or(QueryError::NotOwned { user })?;
        Ok(slot as usize)
    }

    /// The user's current Eq. 11 neighborhood (global ids), searched
    /// with her index row without mutating any state — the diagnostic
    /// twin of the neighborhood [`RealtimeEngine::try_process_event`]
    /// returns, used by the cross-shard equivalence tests and the
    /// quality bench.
    pub fn neighbors_of(&mut self, user: u32) -> Result<Vec<Scored>, QueryError> {
        let rep = self.sccf.user_row(self.check_user(user)?);
        Ok(self.sccf.neighbors_with(user, rep, &mut self.scratch))
    }

    /// The state change one interaction requires, shared by
    /// [`RealtimeEngine::apply_event`] and
    /// [`RealtimeEngine::try_process_event`]; the fresh representation
    /// goes back so the diagnostic form can search with it. The caller
    /// records the timing once it is complete.
    fn apply(&mut self, user: u32, item: u32) -> Result<(Vec<f32>, EventTiming), QueryError> {
        let slot = self.check_user(user)?;
        let n_items = self.sccf.model().n_items();
        if item as usize >= n_items {
            return Err(QueryError::UnknownItem { item, n_items });
        }
        self.histories[slot].push(item);

        let mut sw = Stopwatch::start();
        let rep = self.sccf.model().infer_user(&self.histories[slot]);
        let infer_ms = sw.lap_ms();

        self.sccf.record_event(user, item, &rep);
        let identify_ms = sw.lap_ms();

        self.dirty.insert(user);
        self.tier_dirty.insert(user);
        let timing = EventTiming {
            infer_ms,
            identify_ms,
        };
        Ok((rep, timing))
    }

    /// Ingest one interaction — the write path: append to the history,
    /// re-infer the user representation, refresh her index row and
    /// recent-items ring, mark her dirty. This is the one place the
    /// engine runs the model. No Eq. 11 search: identifying the
    /// neighborhood belongs to the request for a slate
    /// ([`RealtimeEngine::recommend_query`] reads the index row written
    /// here and identifies from it), so the cost of an event does not
    /// depend on population or tier size. In the returned split
    /// `identify_ms` is the index maintenance. Invalid ids surface as
    /// [`QueryError`] before any state changes.
    pub fn apply_event(&mut self, user: u32, item: u32) -> Result<EventTiming, QueryError> {
        let (_, timing) = self.apply(user, item)?;
        self.timings.record(timing);
        Ok(timing)
    }

    /// [`RealtimeEngine::apply_event`], then the Eq. 11 search for the
    /// user's new neighborhood — the per-event "inferring + identifying"
    /// refresh Table III times, kept as the diagnostic form: here
    /// `identify_ms` includes the search. The search is pure (it
    /// touches only the query scratch), so engine state afterwards is
    /// exactly what `apply_event` alone leaves.
    pub fn try_process_event(
        &mut self,
        user: u32,
        item: u32,
    ) -> Result<(Vec<Scored>, EventTiming), QueryError> {
        let (rep, mut timing) = self.apply(user, item)?;
        let sw = Stopwatch::start();
        let neighbors = self.sccf.neighbors_with(user, &rep, &mut self.scratch);
        timing.identify_ms += sw.elapsed_ms();
        self.timings.record(timing);
        Ok((neighbors, timing))
    }

    /// Typed top-`k` recommendation: explicit candidate source and
    /// exclusion policy, errors instead of panics. The defaults are
    /// `CandidateSource::Configured` and [`Exclusion::History`]. Reuses
    /// the engine's scratch: no catalog-sized allocation.
    ///
    /// `m_u` is the user's index row, not a fresh inference, so the
    /// slate is bit-identical to [`Sccf::recommend_query`] over her
    /// history and its `infer_ms` is 0: inferring is paid once per
    /// event, by [`RealtimeEngine::apply_event`].
    pub fn recommend_query(
        &mut self,
        user: u32,
        k: usize,
        source: CandidateSource,
        exclusion: &Exclusion,
    ) -> Result<(Vec<Scored>, EventTiming), QueryError> {
        let slot = self.check_user(user)?;
        let rep = self.sccf.user_row(slot);
        let history = &self.histories[slot];
        let out = self
            .sccf
            .slate(user, rep, history, k, source, exclusion, &mut self.scratch)?;
        self.recommends += 1;
        Ok(out)
    }

    /// Serialize the engine's mutable state — the per-user histories.
    /// Everything else (representations, index contents, recent-item
    /// ring) is derived from them by inference, so this is the complete
    /// failover snapshot; model weights are persisted separately via the
    /// models' own `save_bytes`.
    ///
    /// The artifact is always framed whole-population (see
    /// [`encode_histories`] for the byte format): the owned users at
    /// their global positions, empty histories elsewhere. The sharded
    /// engine merges shard exports instead — one artifact, any engine
    /// shape restores it.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut full: Vec<&[u32]> = vec![&[]; self.sccf.user_count()];
        for (&g, h) in self.sccf.owned_globals().iter().zip(&self.histories) {
            full[g as usize] = h;
        }
        encode_histories(&full)
    }

    /// The `(global user id, history)` pairs this engine owns, in slot
    /// order. The sharded engine's snapshot path merges these across
    /// shards into one whole-population artifact.
    pub fn export_histories(&self) -> Vec<(u32, Vec<u32>)> {
        self.sccf
            .owned_globals()
            .iter()
            .zip(&self.histories)
            .map(|(&g, h)| (g, h.clone()))
            .collect()
    }

    /// Global ids of every user this engine owns, sorted ascending. The
    /// durability layer's *full* checkpoint exports exactly these users.
    pub fn owned_users(&self) -> Vec<u32> {
        let mut users = self.sccf.owned_globals().to_vec();
        users.sort_unstable();
        users
    }

    /// Users whose state changed since the last drain (events ingested
    /// or migrations received), sorted ascending for deterministic
    /// checkpoint layout; clears the set. The incremental checkpoint
    /// exports exactly these users.
    pub fn drain_dirty_users(&mut self) -> Vec<u32> {
        let mut users: Vec<u32> = self.dirty.drain().collect();
        users.sort_unstable();
        users
    }

    /// Re-mark a user dirty without changing any state — recovery marks
    /// replayed users so the next incremental checkpoint covers them.
    pub fn mark_dirty(&mut self, user: u32) {
        self.dirty.insert(user);
        self.tier_dirty.insert(user);
    }

    /// Users whose state changed since their last acknowledged tier
    /// export, sorted ascending for deterministic delta-refresh plan
    /// order. A peek, not a drain: marks are cleared per user by
    /// [`RealtimeEngine::ack_tier_export`] at export time, so a user
    /// dirtied between this read and its export is handled exactly once.
    pub fn tier_dirty_users(&self) -> Vec<u32> {
        let mut users: Vec<u32> = self.tier_dirty.iter().copied().collect();
        users.sort_unstable();
        users
    }

    /// Users currently pending a delta tier-refresh export.
    pub fn tier_dirty_count(&self) -> usize {
        self.tier_dirty.len()
    }

    /// Acknowledge a tier export of `user`: the exported blob reflects
    /// every change so far, so the user is clean *relative to the
    /// snapshot being built*. Events arriving after this call re-mark
    /// the user for the next delta.
    pub fn ack_tier_export(&mut self, user: u32) {
        self.tier_dirty.remove(&user);
    }

    /// Re-mark a user for the next delta tier refresh without changing
    /// any state — an aborted refresh epoch re-marks the users whose
    /// exports it already acknowledged but never installed.
    pub fn mark_tier_dirty(&mut self, user: u32) {
        self.tier_dirty.insert(user);
    }

    /// Serialize one owned user's complete serving state — global id,
    /// index row and full history ([`encode_user_state`]) — for a live
    /// migration handoff, a checkpoint or a tier refresh. The row is
    /// the representation inferred when her history last changed, read
    /// back rather than inferred again. The recent-item ring and the
    /// user-index row are both functions of these (ring = the history's
    /// window tail, row = the representation), so the blob carries
    /// everything the receiving shard needs to
    /// [`RealtimeEngine::import_user`] the user bit-identically to an
    /// offline snapshot restore.
    pub fn export_user(&self, user: u32) -> Result<Vec<u8>, QueryError> {
        let slot = self.check_user(user)?;
        let rep = self.sccf.user_row(slot);
        Ok(encode_user_state(user, rep, &self.histories[slot]))
    }

    /// Adopt a user handed off from another shard: decode and validate
    /// an [`RealtimeEngine::export_user`] blob, then install the history
    /// and the derived state (index row from the carried representation,
    /// ring from the history tail). Returns the adopted user's global
    /// id. Rejects corrupt blobs, out-of-range ids and users this
    /// engine already owns ([`SnapshotDecodeError::AlreadyOwned`]) with
    /// a typed error before touching any state.
    pub fn import_user(&mut self, bytes: &[u8]) -> Result<u32, SnapshotDecodeError> {
        let (user, rep, history) = decode_user_state(bytes)?;
        let n_users = self.sccf.user_count();
        if user as usize >= n_users {
            return Err(SnapshotDecodeError::UserOutOfRange { user, n_users });
        }
        let n_items = self.sccf.model().n_items();
        if let Some(&bad) = history.iter().find(|&&i| i as usize >= n_items) {
            return Err(SnapshotDecodeError::ItemOutOfRange {
                user: user as usize,
                item: bad,
                n_items,
            });
        }
        let dim = self.sccf.model().dim();
        if rep.len() != dim {
            return Err(SnapshotDecodeError::RepDimMismatch {
                snapshot: rep.len(),
                model: dim,
            });
        }
        if self.sccf.slot_of(user).is_some() {
            return Err(SnapshotDecodeError::AlreadyOwned { user });
        }
        self.sccf.adopt_user(user, &history, &rep);
        self.histories.push(history);
        self.dirty.insert(user);
        self.tier_dirty.insert(user);
        Ok(user)
    }

    /// Hand `user`'s slot back (live-resharding evict): swap-remove the
    /// history row and the derived per-user state. Call after
    /// [`RealtimeEngine::export_user`] — the order matters, export
    /// reads the state evict destroys.
    pub fn evict_user(&mut self, user: u32) -> Result<(), QueryError> {
        self.check_user(user)?;
        let slot = self.sccf.evict_user(user);
        self.histories.swap_remove(slot as usize);
        self.dirty.remove(&user);
        self.tier_dirty.remove(&user);
        Ok(())
    }

    /// Re-order this engine's compact slots into the canonical
    /// ascending-global-id layout (see `Sccf::canonicalize_owned`).
    /// After a live migration quiesces, this makes the engine's state
    /// bit-identical to an offline `snapshot` + `restore` of the same
    /// histories. No-op (and free) when the layout is already canonical.
    pub fn canonicalize_owned(&mut self) {
        if let Some(perm) = self.sccf.canonicalize_owned() {
            let mut old = std::mem::take(&mut self.histories);
            self.histories = perm
                .iter()
                .map(|&s| std::mem::take(&mut old[s as usize]))
                .collect();
        }
    }

    /// Rebuild an engine from a snapshot: decode the histories,
    /// validate them, re-derive every owned user's index row and
    /// recent-item ring from them (the derive loop
    /// [`Sccf::refresh_for_test`] runs), then [`RealtimeEngine::new`].
    /// Timing statistics start fresh (they describe a process lifetime,
    /// not the logical state).
    ///
    /// The snapshot is whole-population; the engine restores (and
    /// keeps) only the users its view owns, so the same artifact
    /// rehydrates a plain engine or any shard of a re-partitioned fleet.
    pub fn restore(mut sccf: Sccf<M>, bytes: &[u8]) -> Result<Self, SnapshotDecodeError> {
        let histories = decode_histories(bytes)?;
        if histories.len() != sccf.user_count() {
            return Err(SnapshotDecodeError::UserCountMismatch {
                snapshot: histories.len(),
                index: sccf.user_count(),
            });
        }
        // Validate content before touching any state: a corrupted item id
        // would otherwise panic deep inside an embedding lookup, leaving a
        // half-initialized engine.
        let n_items = sccf.model().n_items();
        for (u, h) in histories.iter().enumerate() {
            if let Some(&bad) = h.iter().find(|&&i| i as usize >= n_items) {
                return Err(SnapshotDecodeError::ItemOutOfRange {
                    user: u,
                    item: bad,
                    n_items,
                });
            }
        }
        sccf.derive_user_state(&histories);
        Ok(Self::new(sccf, histories))
    }
}

const SNAPSHOT_MAGIC: &[u8; 8] = b"SCCFRT01";
const USER_STATE_MAGIC: &[u8; 8] = b"SCCFUM01";

/// Serialize one user's migration handoff blob: magic, global user id,
/// length-prefixed representation (f32 bit patterns), length-prefixed
/// history — the per-user sibling of the whole-population
/// [`encode_histories`] framing, used by live resharding
/// (`RealtimeEngine::export_user` → `RealtimeEngine::import_user`).
/// All fields little-endian.
pub fn encode_user_state(user: u32, rep: &[f32], history: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(20 + rep.len() * 4 + history.len() * 4);
    out.extend_from_slice(USER_STATE_MAGIC);
    put_u32(&mut out, user);
    put_u32(&mut out, rep.len() as u32);
    put_f32s(&mut out, rep);
    put_u32(&mut out, history.len() as u32);
    put_u32s(&mut out, history);
    out
}

/// Decode a blob produced by [`encode_user_state`] back into
/// `(user, representation, history)`. Framing validation only — id
/// ranges and the representation dimension are checked at import, where
/// the target engine is known.
pub fn decode_user_state(bytes: &[u8]) -> Result<(u32, Vec<f32>, Vec<u32>), SnapshotDecodeError> {
    let mut r = Reader::new(bytes);
    r.magic(USER_STATE_MAGIC)?;
    let user = r.u32()?;
    let rep_len = r.u32()? as usize;
    let rep = r.f32s(rep_len)?;
    let hist_len = r.u32()? as usize;
    let history = r.u32s(hist_len)?;
    r.finish()?;
    Ok((user, rep, history))
}

/// Serialize whole-population per-user histories in the engine snapshot
/// format: magic, user count, then per user a length-prefixed item
/// list, all little-endian u32/u64. This is the one serving-state
/// artifact of the system — produced by [`RealtimeEngine::snapshot`]
/// and `ShardedEngine::try_snapshot`, consumed by [`RealtimeEngine::restore`]
/// and `ShardedEngine::restore` at *any* shard count (offline
/// resharding N→M re-partitions at load time).
pub fn encode_histories<H: AsRef<[u32]>>(histories: &[H]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + histories.len() * 8);
    out.extend_from_slice(SNAPSHOT_MAGIC);
    put_u64(&mut out, histories.len() as u64);
    for h in histories {
        let h = h.as_ref();
        put_u32(&mut out, h.len() as u32);
        put_u32s(&mut out, h);
    }
    out
}

/// Why a snapshot could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotDecodeError {
    /// Missing or wrong magic header.
    BadMagic,
    /// Bytes ran out mid-record.
    Truncated,
    /// The snapshot's user count differs from the framework's index.
    UserCountMismatch { snapshot: usize, index: usize },
    /// A history contains an item id outside the model's catalog
    /// (corruption, or a snapshot from a different catalog version).
    ItemOutOfRange {
        user: usize,
        item: u32,
        n_items: usize,
    },
    /// A migration blob names a user outside the population.
    UserOutOfRange { user: u32, n_users: usize },
    /// A migration blob's representation has the wrong dimension for
    /// the target engine's model.
    RepDimMismatch { snapshot: usize, model: usize },
    /// A migration blob was imported into a view that already owns the
    /// user (would double-apply state).
    AlreadyOwned { user: u32 },
}

impl std::fmt::Display for SnapshotDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BadMagic => write!(f, "snapshot header is not an SCCF realtime snapshot"),
            Self::Truncated => write!(f, "snapshot is truncated"),
            Self::UserCountMismatch { snapshot, index } => write!(
                f,
                "snapshot has {snapshot} users but the framework index has {index}"
            ),
            Self::ItemOutOfRange {
                user,
                item,
                n_items,
            } => write!(
                f,
                "user {user}'s history references item {item} outside the catalog of {n_items}"
            ),
            Self::UserOutOfRange { user, n_users } => write!(
                f,
                "migration blob names user {user} outside the population of {n_users}"
            ),
            Self::RepDimMismatch { snapshot, model } => write!(
                f,
                "migration blob carries a {snapshot}-dim representation for a {model}-dim model"
            ),
            Self::AlreadyOwned { user } => {
                write!(
                    f,
                    "migration blob for user {user} already owned by this shard"
                )
            }
        }
    }
}

impl std::error::Error for SnapshotDecodeError {}

impl From<DecodeError> for SnapshotDecodeError {
    /// Bytes left over after the last record are a length that lied,
    /// i.e. `Truncated`.
    fn from(e: DecodeError) -> Self {
        match e {
            DecodeError::BadMagic => Self::BadMagic,
            DecodeError::Truncated | DecodeError::Invalid(_) => Self::Truncated,
        }
    }
}

/// Decode a snapshot produced by [`encode_histories`] back into the
/// whole-population history table. Validates framing only (magic,
/// lengths); catalog-range validation happens at restore, where the
/// target engine's item count is known.
pub fn decode_histories(bytes: &[u8]) -> Result<Vec<Vec<u32>>, SnapshotDecodeError> {
    let mut r = Reader::new(bytes);
    r.magic(SNAPSHOT_MAGIC)?;
    // Every user costs at least its u32 length prefix.
    let n_users = r.count(4)?;
    let mut histories = Vec::with_capacity(n_users);
    for _ in 0..n_users {
        let len = r.u32()? as usize;
        histories.push(r.u32s(len)?);
    }
    r.finish()?;
    Ok(histories)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::SccfConfig;
    use crate::integrator::IntegratorConfig;
    use crate::user_component::UserBasedConfig;
    use sccf_data::{Dataset, Interaction, LeaveOneOut};
    use sccf_index::FrozenTierMode;
    use sccf_models::{Fism, FismConfig, TrainConfig};

    fn tiny_world() -> (LeaveOneOut, Dataset) {
        // Two taste groups over 12 items; 12 users.
        let mut inter = Vec::new();
        use rand::Rng;
        let mut rng = sccf_util::rng::rng_for(9, 1);
        for u in 0..12u32 {
            let base = if u < 6 { 0 } else { 6 };
            let mut seen = sccf_util::hash::fx_set();
            let mut t = 0i64;
            while (t as usize) < 5 {
                let item = base + rng.gen_range(0..6u32);
                if seen.insert(item) {
                    inter.push(Interaction {
                        user: u,
                        item,
                        ts: t,
                    });
                    t += 1;
                }
            }
        }
        let d = Dataset::from_interactions("tiny", 12, 12, &inter, None);
        (LeaveOneOut::split(&d), d)
    }

    fn build_engine() -> RealtimeEngine<Fism> {
        let (split, _) = tiny_world();
        let fism = Fism::train(
            &split,
            &FismConfig {
                train: TrainConfig {
                    dim: 8,
                    epochs: 8,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        let mut sccf = Sccf::build(
            fism,
            &split,
            SccfConfig {
                user_based: UserBasedConfig {
                    beta: 4,
                    recent_window: 5,
                },
                candidate_n: 8,
                integrator: IntegratorConfig {
                    epochs: 5,
                    ..Default::default()
                },
                threads: 1,
                ui_ann: None,
                frozen_tier: FrozenTierMode::Flat,
            },
        );
        // advance index + recent-item state to the same histories the
        // engine starts from — the consistent deployment state
        sccf.refresh_for_test(&split);
        let histories: Vec<Vec<u32>> = (0..split.n_users() as u32)
            .map(|u| split.train_plus_val(u))
            .collect();
        RealtimeEngine::new(sccf, histories)
    }

    /// The default query (configured source, history excluded).
    fn top(engine: &mut RealtimeEngine<Fism>, user: u32, n: usize) -> Vec<Scored> {
        let (items, _) = engine
            .recommend_query(user, n, CandidateSource::Configured, &Exclusion::History)
            .expect("valid user");
        items
    }

    #[test]
    fn event_updates_history_and_times_both_legs() {
        let mut engine = build_engine();
        let before = engine.history(0).len();
        let (neighbors, t) = engine.try_process_event(0, 3).unwrap();
        assert_eq!(engine.history(0).len(), before + 1);
        assert!(t.infer_ms >= 0.0 && t.identify_ms >= 0.0);
        assert!(t.total_ms() >= t.infer_ms);
        assert!(!neighbors.is_empty());
        assert!(neighbors.iter().all(|n| n.id != 0), "u ∉ N_u");
        assert_eq!(engine.timings().infer.count(), 1);
    }

    #[test]
    fn new_interaction_changes_neighborhood_inputs() {
        let mut engine = build_engine();
        // user 0 (group A) suddenly consumes group-B items; her vector
        // must move toward group B in the index.
        let rep_before = engine.sccf().model().infer_user(engine.history(0));
        for item in [6u32, 7, 8, 9, 10] {
            engine.try_process_event(0, item).unwrap();
        }
        let rep_after = engine.sccf().model().infer_user(engine.history(0));
        assert_ne!(rep_before, rep_after);
        // the index reflects the fresh vector
        let stored_sim = sccf_tensor::cosine(
            &rep_after,
            &engine.sccf().model().infer_user(engine.history(0)),
        );
        assert!(stored_sim > 0.99);
    }

    #[test]
    fn recommendations_available_after_events() {
        let mut engine = build_engine();
        engine.try_process_event(0, 4).unwrap();
        let recs = top(&mut engine, 0, 5);
        assert!(!recs.is_empty());
        // never recommend the user's own history
        let hist: sccf_util::FxHashSet<u32> = engine.history(0).iter().copied().collect();
        assert!(recs.iter().all(|r| !hist.contains(&r.id)));
    }

    #[test]
    fn snapshot_restore_roundtrips_state() {
        let mut engine = build_engine();
        engine.try_process_event(0, 6).unwrap();
        engine.try_process_event(3, 7).unwrap();
        let snap = engine.snapshot();
        let histories: Vec<Vec<u32>> = (0..12u32).map(|u| engine.history(u).to_vec()).collect();
        let recs_before = top(&mut engine, 0, 5);

        let mut restored = RealtimeEngine::restore(engine.into_sccf(), &snap).unwrap();
        for (u, h) in histories.iter().enumerate() {
            assert_eq!(restored.history(u as u32), h.as_slice());
        }
        // recommendations are identical: the state is fully derived
        assert_eq!(top(&mut restored, 0, 5), recs_before);
        // timing statistics start fresh
        assert_eq!(restored.timings().infer.count(), 0);
    }

    #[test]
    fn restore_reflects_post_snapshot_drift_correctly() {
        // Events after the snapshot must NOT be visible in the restored
        // engine — restore is point-in-time, not tail-replay.
        let mut engine = build_engine();
        engine.try_process_event(0, 6).unwrap();
        let snap = engine.snapshot();
        engine.try_process_event(0, 7).unwrap(); // post-snapshot event
        let len_after = engine.history(0).len();
        let restored = RealtimeEngine::restore(engine.into_sccf(), &snap).unwrap();
        assert_eq!(restored.history(0).len(), len_after - 1);
        assert!(!restored.history(0).contains(&7));
    }

    #[test]
    fn restore_rejects_garbage_and_truncation() {
        let engine = build_engine();
        let snap = engine.snapshot();
        let sccf = engine.into_sccf();
        let err = match RealtimeEngine::restore(sccf, b"not a snapshot") {
            Err(e) => e,
            Ok(_) => panic!("garbage snapshot must not restore"),
        };
        assert_eq!(err, SnapshotDecodeError::BadMagic);

        let engine2 = build_engine();
        let sccf2 = engine2.into_sccf();
        let err2 = match RealtimeEngine::restore(sccf2, &snap[..snap.len() - 3]) {
            Err(e) => e,
            Ok(_) => panic!("truncated snapshot must not restore"),
        };
        assert_eq!(err2, SnapshotDecodeError::Truncated);
    }

    #[test]
    fn typed_path_rejects_bad_ids_without_state_change() {
        let mut engine = build_engine();
        let before = engine.history(0).len();
        assert!(matches!(
            engine.try_process_event(99, 0),
            Err(QueryError::UnknownUser { user: 99, .. })
        ));
        assert!(matches!(
            engine.try_process_event(0, 999),
            Err(QueryError::UnknownItem { item: 999, .. })
        ));
        assert_eq!(
            engine.history(0).len(),
            before,
            "failed ingest must not mutate"
        );
        assert!(matches!(
            engine.recommend_query(99, 5, CandidateSource::Configured, &Exclusion::History),
            Err(QueryError::UnknownUser { .. })
        ));
        assert!(matches!(
            engine.recommend_query(0, 5, CandidateSource::Ann, &Exclusion::History),
            Err(QueryError::AnnUnavailable)
        ));
        // the engine keeps serving after rejected requests
        let (recs, t) = engine
            .recommend_query(0, 5, CandidateSource::Configured, &Exclusion::History)
            .expect("valid query serves");
        assert!(!recs.is_empty());
        assert!(t.infer_ms >= 0.0 && t.identify_ms >= 0.0);
    }

    #[test]
    fn identically_built_engines_recommend_bitwise_identically() {
        // The determinism every cross-engine bit-identity pin rests on:
        // same build, same event, same float bits.
        let mut a = build_engine();
        let mut b = build_engine();
        a.try_process_event(0, 4).unwrap();
        b.try_process_event(0, 4).unwrap();
        let (xs, ys) = (top(&mut a, 0, 6), top(&mut b, 0, 6));
        assert_eq!(xs.len(), ys.len());
        for (x, y) in xs.iter().zip(&ys) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.score.to_bits(), y.score.to_bits());
        }
    }

    #[test]
    fn exclusion_policies_shape_the_slate() {
        let mut engine = build_engine();
        engine.try_process_event(0, 4).unwrap();
        let hist: sccf_util::FxHashSet<u32> = engine.history(0).iter().copied().collect();

        // History (default): no repeats.
        let (default_recs, _) = engine
            .recommend_query(0, 6, CandidateSource::Configured, &Exclusion::History)
            .unwrap();
        assert!(default_recs.iter().all(|r| !hist.contains(&r.id)));

        // HistoryAnd: the previous top pick disappears.
        let banned = default_recs[0].id;
        let (filtered, _) = engine
            .recommend_query(
                0,
                6,
                CandidateSource::Configured,
                &Exclusion::HistoryAnd(vec![banned]),
            )
            .unwrap();
        assert!(filtered.iter().all(|r| r.id != banned));
        assert!(filtered.iter().all(|r| !hist.contains(&r.id)));

        // HistoryAnd validates the extra ids.
        assert!(matches!(
            engine.recommend_query(
                0,
                6,
                CandidateSource::Configured,
                &Exclusion::HistoryAnd(vec![10_000]),
            ),
            Err(QueryError::UnknownItem { item: 10_000, .. })
        ));

        // Nothing: history items may reappear (12-item catalog, 6-item
        // histories — unmasked Eq. 10 must surface at least one repeat).
        let (open, _) = engine
            .recommend_query(0, 12, CandidateSource::Configured, &Exclusion::Nothing)
            .unwrap();
        assert!(
            open.iter().any(|r| hist.contains(&r.id)),
            "unmasked query should rank history items too"
        );
    }

    #[test]
    fn restore_rejects_user_count_mismatch() {
        let engine = build_engine();
        let mut snap = engine.snapshot();
        // corrupt the user count field (bytes 8..16) to a smaller value,
        // and truncate the payload to match one user
        snap[8..16].copy_from_slice(&1u64.to_le_bytes());
        let one_user_len = 16 + 4 + engine.history(0).len() * 4;
        snap.truncate(one_user_len);
        let err = match RealtimeEngine::restore(engine.into_sccf(), &snap) {
            Err(e) => e,
            Ok(_) => panic!("mismatched snapshot must not restore"),
        };
        assert!(matches!(err, SnapshotDecodeError::UserCountMismatch { .. }));
    }
}
