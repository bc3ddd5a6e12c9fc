//! The epoch slot: at most one incremental, batch-driven operation —
//! a live reshard or a global-tier refresh — is in flight at a time,
//! in [`ShardedEngine`]'s single `in_flight` field.
//! Both kinds share one plan/cursor/batch walk ([`ShardedEngine::advance`])
//! over the same FIFO worker queues events use; they differ only in
//! what a batch does (hand users off vs. collect their exports) and in
//! what completing the plan installs (a ring vs. a tier snapshot).
//! Because there is one slot, two epochs cannot overlap by
//! construction, and every operation that must not race one asks the
//! same question: [`ShardedEngine::idle_for`].

use std::sync::Arc;

use sccf_core::{decode_user_state, GlobalNeighborSnapshot, RealtimeEngine, Sccf, TierScratch};
use sccf_models::InductiveUiModel;
use sccf_util::timer::Stopwatch;
use sccf_util::FxHashSet;

use super::durability::open_wals;
use super::worker::{join_worker, spawn_worker, AfterExport, ShardMsg};
use super::{
    RefreshReport, ReshardReport, ShardedConfig, ShardedEngine, DEFAULT_HANDOFF_BATCH,
    DEFAULT_REFRESH_BATCH,
};
use crate::api::ServingError;
use crate::ring::{group_by_owner, HashRing};

/// Which in-flight epochs an operation must not overlap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Blocks {
    /// Anything that reads or reshapes the whole fleet: it needs
    /// stable ownership *and* no half-collected tier.
    AnyEpoch,
    /// Tier installs and clears: they would race the collection's own
    /// install, but a reshard never touches the tier (new workers
    /// inherit whatever is current).
    Refresh,
}

/// The occupant of the epoch slot.
pub(super) struct InFlight {
    /// The users this epoch still has to walk, ascending: everyone
    /// whose shard changes (reshard), the fleet's tier-dirty sets (a
    /// refresh splicing into the installed tier) or the whole
    /// population (a refresh building fresh).
    plan: Vec<u32>,
    /// Next unprocessed index into `plan`.
    cursor: usize,
    /// Users processed per step — one step blocks the router for one
    /// batch's round trip, so this bounds the worst-case ingestion
    /// pause the epoch can introduce.
    batch: usize,
    kind: EpochKind,
}

enum EpochKind {
    /// Users in `pending` still route through the stable ring; users
    /// already handed off route through `new`.
    Reshard {
        new: HashRing,
        /// `plan[cursor..]` as a set, for O(1) routing decisions.
        pending: FxHashSet<u32>,
    },
    Refresh {
        /// The installed snapshot the exports splice into; `None`
        /// builds fresh from a whole-population export.
        base: Option<Arc<GlobalNeighborSnapshot>>,
        /// Decoded `(user, representation, history)` exports so far.
        entries: Vec<(u32, Vec<f32>, Vec<u32>)>,
        batches: u64,
        started: Stopwatch,
    },
}

impl InFlight {
    fn is_reshard(&self) -> bool {
        matches!(self.kind, EpochKind::Reshard { .. })
    }

    /// Users the epoch has not processed yet.
    pub(super) fn remaining(&self) -> usize {
        self.plan.len() - self.cursor
    }

    /// Where a mid-reshard router sends `user` if she has already been
    /// handed off; `None` leaves her on the stable ring.
    pub(super) fn moved_to(&self, user: u32) -> Option<usize> {
        match &self.kind {
            EpochKind::Reshard { new, pending, .. } if !pending.contains(&user) => {
                Some(new.route(user))
            }
            _ => None,
        }
    }
}

impl<M: InductiveUiModel + 'static> ShardedEngine<M> {
    /// Whether a live reshard is in flight (begun but not yet quiesced).
    pub fn is_migrating(&self) -> bool {
        self.in_flight.as_ref().is_some_and(InFlight::is_reshard)
    }

    /// True while an incremental tier refresh is in flight.
    pub fn is_refreshing(&self) -> bool {
        self.in_flight.as_ref().is_some_and(|fl| !fl.is_reshard())
    }

    /// The one exclusion check: `requested` may proceed unless the
    /// slot holds an epoch that `blocks` it.
    pub(super) fn idle_for(
        &self,
        requested: &'static str,
        blocks: Blocks,
    ) -> Result<(), ServingError> {
        match &self.in_flight {
            Some(fl) if blocks == Blocks::AnyEpoch || !fl.is_reshard() => {
                let in_flight = if fl.is_reshard() {
                    "reshard"
                } else {
                    "refresh"
                };
                Err(ServingError::EpochInFlight {
                    requested,
                    in_flight,
                })
            }
            _ => Ok(()),
        }
    }

    /// Walk the in-flight epoch one batch forward — if it is the kind
    /// the caller drives — and complete it when the plan is exhausted.
    /// Returns the users still to go (0 = completed on this call, or
    /// nothing of that kind was in flight).
    fn advance(&mut self, reshard: bool) -> Result<usize, ServingError> {
        let Some(fl) = self
            .in_flight
            .as_mut()
            .filter(|fl| fl.is_reshard() == reshard)
        else {
            return Ok(0);
        };
        let start = fl.cursor;
        fl.cursor = start.saturating_add(fl.batch).min(fl.plan.len());
        let users = fl.plan[start..fl.cursor].to_vec();
        let remaining = fl.remaining();
        match &mut fl.kind {
            EpochKind::Reshard { new, pending, .. } => {
                // Flip each user's routing in the same call that ships
                // her state: no window in which two shards accept her.
                let moves = users
                    .iter()
                    .map(|&u| {
                        pending.remove(&u);
                        (u, new.route(u))
                    })
                    .collect();
                self.hand_off(moves);
            }
            EpochKind::Refresh { .. } => self.collect(users)?,
        }
        if remaining == 0 {
            self.complete();
        }
        Ok(remaining)
    }

    /// Plan exhausted: empty the slot and install what the epoch built.
    fn complete(&mut self) {
        let fl = self.in_flight.take().expect("an epoch is completing");
        match fl.kind {
            EpochKind::Reshard { new, .. } => self.quiesce_to(new),
            EpochKind::Refresh {
                base,
                entries,
                batches,
                started,
            } => {
                self.tier_epoch += 1;
                let n_users = self.admission.n_users;
                let snapshot = match &base {
                    // Splice the dirty rows into the installed snapshot
                    // — bit-identical to the full rebuild at this
                    // watermark, because every unexported user's state
                    // is unchanged since the previous export.
                    Some(prev) => {
                        self.shared
                            .build_neighbor_snapshot_delta(prev, self.tier_epoch, entries)
                    }
                    None => self
                        .shared
                        .build_neighbor_snapshot(self.tier_epoch, n_users, entries),
                };
                self.set_tier(Some(Arc::new(snapshot)), true);
                self.last_refresh = Some(RefreshReport {
                    epoch: self.tier_epoch,
                    users: fl.plan.len() as u64,
                    batches,
                    duration_ms: started.elapsed_ms(),
                    delta: base.is_some(),
                });
            }
        }
    }

    // ------------------------------------------------------------------
    // Live resharding

    /// Reshard the fleet N→M live, blocking until the migration
    /// completes (with [`DEFAULT_HANDOFF_BATCH`] users per batch).
    /// Workers keep draining their queues throughout — every event
    /// already accepted is processed during the migration, not after
    /// it. For interleaving your own ingestion between batches (the
    /// no-stall deployment shape), drive
    /// [`ShardedEngine::begin_reshard`] /
    /// [`ShardedEngine::reshard_step`] yourself — this method is just
    /// that loop.
    ///
    /// An N→N reshard under the same router is a no-op for routing
    /// (zero users moved, zero batches) but still applies
    /// `new_cfg.queue_capacity`: surviving workers are swapped onto
    /// fresh queues at the new capacity (FIFO order preserved across
    /// the swap), so a reshard is also the way to resize queues live.
    ///
    /// ```
    /// use sccf_core::{FrozenTierMode, IntegratorConfig, Sccf, SccfConfig, UserBasedConfig};
    /// use sccf_data::{Dataset, Interaction, LeaveOneOut};
    /// use sccf_models::{Fism, FismConfig, TrainConfig};
    /// use sccf_serving::api::{RecQuery, ServingApi};
    /// use sccf_serving::sharded::{RouterKind, ShardedConfig, ShardedEngine};
    ///
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
    /// let consistent = |n_shards| ShardedConfig {
    ///     n_shards,
    ///     queue_capacity: 64,
    ///     router: RouterKind::Consistent { vnodes: 16 },
    /// };
    ///
    /// // A 1-shard fleet absorbs traffic, then scales out to 3 live.
    /// let mut engine = ShardedEngine::try_new(sccf, histories, consistent(1)).unwrap();
    /// engine.try_ingest(0, 5).expect("ids in range");
    /// let report = engine.reshard(consistent(3)).expect("live reshard");
    /// assert_eq!((report.from_shards, report.to_shards), (1, 3));
    /// assert!(!engine.is_migrating());
    /// assert_eq!(engine.n_shards(), 3);
    ///
    /// // No event was lost or duplicated, and the fleet keeps serving.
    /// engine.try_ingest(0, 6).expect("post-reshard ingest");
    /// engine.flush().expect("barrier");
    /// let stats = engine.serving_stats().expect("stats");
    /// assert_eq!(stats.events, 2);
    /// assert_eq!(stats.migration.migrated_users, report.moved_users);
    /// assert!(!engine.try_recommend(0, &RecQuery::top(3)).unwrap().items.is_empty());
    /// engine.shutdown();
    /// ```
    pub fn reshard(&mut self, new_cfg: ShardedConfig) -> Result<ReshardReport, ServingError> {
        let (from, to) = (self.n_shards(), new_cfg.n_shards);
        let (moved0, batches0) = (self.migrated_users, self.migration_batches);
        self.begin_reshard(new_cfg, DEFAULT_HANDOFF_BATCH)?;
        while self.is_migrating() {
            self.reshard_step()?;
        }
        Ok(ReshardReport {
            from_shards: from,
            to_shards: to,
            moved_users: self.migrated_users - moved0,
            batches: self.migration_batches - batches0,
        })
    }

    /// Enter a migration epoch toward `new_cfg` without moving anyone
    /// yet: compute the handoff plan (every user whose shard changes
    /// between the current and the new ring), spawn empty workers for
    /// any new shards, and switch the router to migration routing.
    /// Ingestion and recommendations keep flowing; call
    /// [`ShardedEngine::reshard_step`] to hand off `handoff_batch`
    /// users at a time until [`ShardedEngine::is_migrating`] turns
    /// false. If no user moves (e.g. N→N under the same router), the
    /// epoch quiesces immediately.
    ///
    /// Errors — and leaves the fleet untouched — on degenerate configs,
    /// if any epoch is already in flight
    /// ([`ServingError::EpochInFlight`]: overlapping migrations would
    /// make routing ambiguous, and ownership must not shift under a
    /// refresh collection), or if a new shard's WAL cannot be opened.
    pub fn begin_reshard(
        &mut self,
        new_cfg: ShardedConfig,
        handoff_batch: usize,
    ) -> Result<(), ServingError> {
        self.idle_for("begin_reshard", Blocks::AnyEpoch)?;
        if handoff_batch == 0 {
            return Err(ServingError::InvalidConfig(
                "handoff_batch must be ≥ 1".to_string(),
            ));
        }
        if new_cfg.queue_capacity == 0 {
            return Err(ServingError::InvalidConfig(
                "queue_capacity must be ≥ 1".to_string(),
            ));
        }
        let new_ring = new_cfg.ring()?;
        if self.ring.is_slice() || new_ring.is_slice() {
            return Err(ServingError::InvalidConfig(
                "a slice engine hosts one window of a multi-process fleet; resharding \
                 moves users between processes and is orchestrated at the fleet layer, \
                 not per slice"
                    .to_string(),
            ));
        }
        // New workers inherit the durability arming: open every new
        // shard's log *before* the first side effect, so an I/O failure
        // leaves the fleet exactly as it was — never a half-spawned
        // worker serving acknowledged events with no log behind them.
        let wals = match &self.durability {
            Some(st) => open_wals(&st.cfg, self.txs.len()..new_cfg.n_shards)?,
            None => Vec::new(),
        };
        let mut wals = wals.into_iter();
        let plan: Vec<u32> = (0..self.admission.n_users as u32)
            .filter(|&u| self.ring.route(u) != new_ring.route(u))
            .collect();
        // Queue resize: swap every surviving worker onto a fresh queue
        // at the new capacity. The swap message is the last message on
        // the old queue (its sender is dropped right after), so FIFO
        // order is total across the swap — nothing queued before it can
        // be reordered behind anything sent on the new queue. Workers
        // spawned below start on new-capacity queues directly.
        let capacity = new_cfg.queue_capacity;
        if capacity != self.queue_capacity {
            for s in 0..self.txs.len() {
                let (tx, rx) = crossbeam::channel::bounded::<ShardMsg>(capacity);
                self.send(s, ShardMsg::SwapQueue { rx, capacity });
                self.txs[s] = tx;
            }
            self.queue_capacity = capacity;
        }
        // Scale-out: spawn empty views for the new shards before any
        // routing can reach them. FIFO order after the spawn puts the
        // WAL and the fleet's current global tier (if any) in place
        // ahead of the first handoff import or routed event, so a new
        // worker logs and serves like the survivors from its first
        // adopted user on.
        for s in self.txs.len()..new_cfg.n_shards {
            let view = Sccf::empty_shard_view(&self.shared, self.admission.n_users);
            let (tx, handle) = spawn_worker(s, RealtimeEngine::new(view, Vec::new()), capacity);
            self.txs.push(tx);
            self.handles.push(Some(handle));
            if let Some(wal) = wals.next() {
                // A past fleet life may have left this shard id's file
                // behind (scale-in then scale-out); it was reopened for
                // append — its old records are still replayable,
                // sequence numbers keep the global order.
                let dirty = Vec::new();
                self.send(s, ShardMsg::Durability { wal, dirty });
            }
            if let Some(tier) = self.current_tier.clone() {
                self.send(s, ShardMsg::TierInstall { tier: Some(tier) });
            }
        }
        if plan.is_empty() {
            self.quiesce_to(new_ring);
            return Ok(());
        }
        self.in_flight = Some(InFlight {
            kind: EpochKind::Reshard {
                new: new_ring,
                pending: plan.iter().copied().collect(),
            },
            plan,
            cursor: 0,
            batch: handoff_batch,
        });
        Ok(())
    }

    /// Hand off the next batch of moving users, then return how many
    /// users still await handoff (0 = the migration quiesced on this
    /// call, or none was in flight).
    ///
    /// One step blocks the caller for one batch's export+import round
    /// trip — that is the *maximum* ingestion stall live resharding
    /// ever introduces, and it is bounded by the batch size chosen at
    /// [`ShardedEngine::begin_reshard`]. Workers not involved in the
    /// batch keep draining their queues concurrently. A full target
    /// queue applies ordinary backpressure (the import send blocks
    /// until the worker drains); no cycle exists between router and
    /// workers, so the handoff cannot deadlock (exercised by
    /// `tests/failure_injection.rs`).
    pub fn reshard_step(&mut self) -> Result<usize, ServingError> {
        self.advance(true)
    }

    /// Ship one batch of `(user, destination shard)` moves: source
    /// shards export and evict in parallel, then each destination
    /// adopts its blobs. FIFO queues order each import ahead of any
    /// event or request this router routes to the moved users
    /// afterwards.
    fn hand_off(&mut self, moves: Vec<(u32, usize)>) {
        let moved = moves.len() as u64;
        let by_src = group_by_owner(moves, |&(u, _)| self.ring.route(u));
        let exported = self.scatter(
            by_src
                .iter()
                .map(|g| (g.owner, g.items.iter().map(|&(u, _)| u).collect())),
            |users, reply| ShardMsg::ExportUsers {
                users,
                then: AfterExport::Evict,
                reply,
            },
        );
        let carried = by_src.iter().zip(exported).flat_map(|(g, blobs)| {
            debug_assert_eq!(blobs.len(), g.items.len());
            g.items.iter().map(|&(_, dst)| dst).zip(blobs)
        });
        for g in group_by_owner(carried, |&(dst, _)| dst) {
            let blobs = g.items.into_iter().map(|(_, blob)| blob).collect();
            self.send(g.owner, ShardMsg::ImportUsers { blobs });
        }
        self.migrated_users += moved;
        self.migration_batches += u64::from(moved > 0);
    }

    /// Seal a migration: canonicalize every worker's slot layout (so
    /// the live-resharded state matches an offline restore bit for
    /// bit), retire surplus workers (scale-in), and install the new
    /// ring as the stable one.
    fn quiesce_to(&mut self, ring: HashRing) {
        self.fan_out(|reply| ShardMsg::Canonicalize { reply });
        while self.txs.len() > ring.n_shards() {
            // Retired shards own no users by now; close the queue, let
            // the worker drain and keep its report for the accounting.
            drop(self.txs.pop());
            let handle = self.handles.pop().expect("one handle per tx");
            let handle = handle.expect("retiring shard whose worker already died");
            let (_engine, mut report) = join_worker(handle);
            report.retired = true;
            self.retired.push(report);
        }
        self.ring = ring;
    }

    // ------------------------------------------------------------------
    // Two-tier neighborhoods: the global-snapshot refresh epoch

    /// Refresh the frozen global neighbor tier and swap it into every
    /// worker, blocking until done (with [`DEFAULT_REFRESH_BATCH`]
    /// users per export batch). This is what turns the fleet's Eq. 11
    /// neighborhoods from *in-shard approximations* into *two-tier
    /// full-population* neighborhoods: each worker keeps writing only
    /// its own users (the fresh local delta), and merges this snapshot
    /// for everyone else. [`ShardedEngine::begin_refresh`] picks the
    /// kind; [`RefreshReport::delta`] says which ran.
    ///
    /// The collection rides the same worker queues as events
    /// ([`RealtimeEngine::export_user`] blobs, no evictions), one
    /// bounded batch per [`ShardedEngine::refresh_step`] — workers keep
    /// draining their queues throughout, and the final swap is one
    /// `Arc` store per worker, so ingestion never observes a
    /// stop-the-world gap. For interleaving your own ingestion between
    /// batches (the no-stall deployment shape, mirroring
    /// [`ShardedEngine::begin_reshard`] /
    /// [`ShardedEngine::reshard_step`]), drive
    /// [`ShardedEngine::begin_refresh`] /
    /// [`ShardedEngine::refresh_step`] yourself — this method is just
    /// that loop.
    ///
    /// Calling it after **every** event makes an N-shard fleet's
    /// Eq. 11 neighbor sets identical to the N=1 plain engine's on the
    /// same stream (pinned by `tests/serving_api.rs`); real deployments
    /// pick a cadence and pay bounded staleness instead
    /// (`docs/OPERATIONS.md`).
    pub fn refresh_global_tier(&mut self) -> Result<RefreshReport, ServingError> {
        self.begin_refresh(DEFAULT_REFRESH_BATCH)?;
        while self.is_refreshing() {
            self.refresh_step()?;
        }
        Ok(self.last_refresh.expect("a refresh just completed"))
    }

    /// Start an incremental global-tier refresh without collecting
    /// anyone yet. Drive [`ShardedEngine::refresh_step`] until it
    /// reports 0 remaining; each step blocks the router for one
    /// `batch`-user export round trip at most, so — like the reshard
    /// handoff — the batch size bounds the worst-case ingestion pause.
    ///
    /// The engine picks the kind. If this fleet's own refresh built the
    /// installed tier ([`crate::api::NeighborhoodStats::delta_ready`]),
    /// the per-shard tier-dirty sets name exactly the rows that differ
    /// from it: the plan is those users (collected over the FIFO
    /// queues, so it reflects every event routed before this call) and
    /// their exports splice into the installed tier — bit-identical to
    /// a full rebuild at the same watermark (pinned by
    /// `tests/control.rs`), at O(dirty) export cost. An empty dirty set
    /// still completes an epoch (one no-op step) and installs a
    /// snapshot differing from the previous one only in its epoch
    /// stamp. Otherwise — no tier, or one from
    /// [`ShardedEngine::install_global_tier`] whose provenance is
    /// unknown, or after [`ShardedEngine::clear_global_tier`] or a
    /// restore — everyone is exported and the tier is built fresh. To
    /// force a full rebuild, clear the tier first.
    ///
    /// Errors — leaving the fleet untouched — on `batch == 0`, or with
    /// [`ServingError::EpochInFlight`] if the epoch slot is taken: a
    /// second collection would double-acknowledge exports, and under a
    /// live reshard the ownership plan would shift under the
    /// collection (symmetrically, [`ShardedEngine::begin_reshard`]
    /// rejects while a refresh is collecting).
    pub fn begin_refresh(&mut self, batch: usize) -> Result<(), ServingError> {
        if batch == 0 {
            return Err(ServingError::InvalidConfig(
                "refresh batch must be ≥ 1".to_string(),
            ));
        }
        self.idle_for("begin_refresh", Blocks::AnyEpoch)?;
        if self.ring.is_slice() {
            return Err(ServingError::InvalidConfig(
                "a slice engine owns only its window of the population; the whole-population \
                 tier refresh is orchestrated at the fleet layer (collect exports from every \
                 process, then install_global_tier on each)"
                    .to_string(),
            ));
        }
        let started = Stopwatch::start();
        let base = self.current_tier.clone().filter(|_| self.tier_delta_ok);
        let plan: Vec<u32> = if base.is_some() {
            // The peek rides the queues behind every routed event; each
            // user's mark is cleared later, when its export is collected.
            let mut dirty: Vec<u32> = self
                .fan_out(|reply| ShardMsg::TierDirty { reply })
                .into_iter()
                .flatten()
                .collect();
            dirty.sort_unstable();
            dirty
        } else {
            // Every user is owned by exactly one stable-ring shard.
            (0..self.admission.n_users as u32).collect()
        };
        self.in_flight = Some(InFlight {
            kind: EpochKind::Refresh {
                base,
                entries: Vec::with_capacity(plan.len()),
                batches: 0,
                started,
            },
            plan,
            cursor: 0,
            batch,
        });
        Ok(())
    }

    /// Collect the next batch of user exports; on the last batch,
    /// build the new [`GlobalNeighborSnapshot`] and broadcast it to
    /// every worker. Returns how many users still await export
    /// (0 = the refresh completed on this call, or none was running).
    pub fn refresh_step(&mut self) -> Result<usize, ServingError> {
        self.advance(false)
    }

    /// Collect one batch of exports into the in-flight refresh. Shards
    /// export in parallel; each export is acknowledged against the
    /// shard's tier-dirty set as it happens — the blob feeds the
    /// snapshot being built, so the user is clean relative to it, and
    /// any event arriving after the export re-marks her for the next
    /// delta.
    fn collect(&mut self, users: Vec<u32>) -> Result<(), ServingError> {
        let groups = group_by_owner(users.iter().copied(), |&u| self.ring.route(u));
        let exported = self.scatter(
            groups.into_iter().map(|g| (g.owner, g.items)),
            |users, reply| ShardMsg::ExportUsers {
                users,
                then: AfterExport::AckTier,
                reply,
            },
        );
        let decoded: Result<Vec<_>, _> = exported
            .iter()
            .flatten()
            .map(|blob| decode_user_state(blob))
            .collect();
        let Some(InFlight {
            kind: EpochKind::Refresh {
                entries, batches, ..
            },
            ..
        }) = &mut self.in_flight
        else {
            unreachable!("collect runs inside a refresh epoch");
        };
        match decoded {
            Ok(batch) => {
                entries.extend(batch);
                *batches += 1;
                Ok(())
            }
            // A worker produced an undecodable export: abort the whole
            // epoch before surfacing the error — nothing was installed,
            // the previous tier (if any) keeps serving, and the slot is
            // free again. Completing with a hole would silently ship a
            // snapshot missing this batch's users. The exports this
            // epoch already acknowledged fed a snapshot that will never
            // install, so their tier-dirty marks must come back — or
            // the next delta would ship stale rows.
            Err(e) => {
                let stale: Vec<u32> = entries.iter().map(|(u, _, _)| *u).chain(users).collect();
                self.in_flight = None;
                for g in group_by_owner(stale, |&u| self.ring.route(u)) {
                    self.send(g.owner, ShardMsg::TierMark { users: g.items });
                }
                Err(e.into())
            }
        }
    }

    /// Install an externally supplied global neighbor snapshot into
    /// every worker — the load side of
    /// [`sccf_core::GlobalNeighborSnapshot::encode`]: persist a tier
    /// next to an engine snapshot, and after a
    /// [`ShardedEngine::restore`] (which always comes up tier-less)
    /// re-arm two-tier serving immediately instead of paying a full
    /// re-export [`ShardedEngine::refresh_global_tier`]. The snapshot's
    /// staleness clock restarts at install (`events_since_refresh`
    /// counts from here); its epoch also fast-forwards this fleet's
    /// epoch counter so a later refresh strictly increases it.
    ///
    /// Rejects — without touching any worker — a snapshot that does not
    /// fit this fleet's population, vector dimension or catalog
    /// ([`GlobalNeighborSnapshot::check_fits`]: an
    /// [`ServingError::InvalidConfig`] or an
    /// [`ServingError::UnknownItem`]), or (with
    /// [`ServingError::EpochInFlight`]) an install while a refresh is
    /// collecting. A live reshard does not block it.
    pub fn install_global_tier(
        &mut self,
        snapshot: GlobalNeighborSnapshot,
    ) -> Result<(), ServingError> {
        self.idle_for("install_global_tier", Blocks::Refresh)?;
        // Checked before the broadcast, so nothing installs partially.
        let world = self.admission;
        snapshot.check_fits(world.n_users, self.shared.model().dim(), world.n_items)?;
        self.tier_epoch = self.tier_epoch.max(snapshot.epoch());
        // The artifact's provenance is unknown: the fleet's tier-dirty
        // sets say which users changed since *their* last export, not
        // since this snapshot was built. Splicing into it could ship
        // stale rows, so the next refresh builds fresh.
        self.set_tier(Some(Arc::new(snapshot)), false);
        Ok(())
    }

    /// The currently installed global snapshot, if any — encode it
    /// ([`sccf_core::GlobalNeighborSnapshot::encode`]) to persist the
    /// tier alongside [`ShardedEngine::try_snapshot`], and re-arm a
    /// restored fleet with [`ShardedEngine::install_global_tier`].
    pub fn global_tier(&self) -> Option<&Arc<GlobalNeighborSnapshot>> {
        self.current_tier.as_ref()
    }

    /// Disable the two-tier path: every worker drops its frozen tier
    /// and Eq. 11 returns to the shard-local scan — bit-identical to a
    /// fleet that never refreshed (pinned by `tests/sharded.rs`). The
    /// epoch counter is not reset; a later refresh continues it.
    /// Rejected with [`ServingError::EpochInFlight`] while a refresh
    /// is collecting; a live reshard does not block it.
    pub fn clear_global_tier(&mut self) -> Result<(), ServingError> {
        self.idle_for("clear_global_tier", Blocks::Refresh)?;
        self.set_tier(None, false);
        Ok(())
    }

    /// Make `tier` the fleet's global tier: broadcast it (one `Arc`
    /// store per worker), remember it for workers a later scale-out
    /// spawns, and restart the staleness clock. `delta_ok` says the
    /// per-shard tier-dirty sets name exactly the rows differing from
    /// it — true only for snapshots this fleet's own refresh built, and
    /// what makes the next refresh splice.
    fn set_tier(&mut self, tier: Option<Arc<GlobalNeighborSnapshot>>, delta_ok: bool) {
        for s in 0..self.txs.len() {
            self.send(s, ShardMsg::TierInstall { tier: tier.clone() });
        }
        self.tier_search_ns = tier.as_deref().map_or(0.0, |t| {
            measure_tier_search_ns(t, self.shared.config().user_based.beta)
        });
        if tier.is_some() {
            self.events_at_refresh = self.events_routed;
        }
        self.tier_delta_ok = delta_ok;
        self.current_tier = tier;
    }
}

/// Mean wall-clock nanoseconds of one frozen-tier search, probed with
/// up to 8 of the snapshot's own covered vectors as queries (after a
/// warm-up pass, so scratch-buffer growth isn't billed to the
/// measurement). Runs on the router thread at tier install — a few
/// microseconds of work, once per refresh — and is what
/// `ServingStats.neighborhood.tier_search_ns` reports: the measured
/// cost of the mode the operator picked, on the population actually
/// being served.
fn measure_tier_search_ns(snapshot: &GlobalNeighborSnapshot, beta: usize) -> f64 {
    let index = snapshot.index();
    let norms = index.norms();
    let probes: Vec<&[f32]> = (0..index.len())
        .filter(|&u| norms[u] > f32::EPSILON)
        .take(8)
        .map(|u| index.vector(u as u32))
        .collect();
    if probes.is_empty() || beta == 0 {
        return 0.0;
    }
    let mut scratch = TierScratch::new();
    let mut out = Vec::new();
    let skip = |_: u32| false;
    for q in &probes {
        out.clear();
        snapshot.search_append_with(q, beta, &skip, &mut scratch, &mut out);
    }
    let start = std::time::Instant::now();
    for q in &probes {
        out.clear();
        snapshot.search_append_with(q, beta, &skip, &mut scratch, &mut out);
    }
    start.elapsed().as_nanos() as f64 / probes.len() as f64
}
