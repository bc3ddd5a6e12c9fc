//! Durability for the sharded engine: arming per-shard WALs, writing
//! incremental checkpoints, rotating log segments and rebuilding a
//! fleet from disk. The file formats live in [`crate::wal`]; this is
//! the engine-side driver.

use std::ops::Range;
use std::path::PathBuf;

use sccf_core::{decode_user_state, Sccf};
use sccf_models::InductiveUiModel;

use super::epoch::Blocks;
use super::worker::ShardMsg;
use super::{ShardedConfig, ShardedEngine};
use crate::api::{DurabilityStats, ServingError};
use crate::wal::{self, WalError, WalRecord, WalStatus, WalTail, WalWriter};

/// Durability knobs: where the WAL + checkpoint files live and how
/// aggressively they are flushed. See `docs/OPERATIONS.md` for sizing
/// guidance — `fsync_every` trades ingest throughput against the crash
/// loss window, `checkpoint_every_events` trades checkpoint I/O against
/// replay time.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Directory holding `wal-{shard}.log` and `ckpt-{epoch}.ckpt`
    /// files. Created if missing by
    /// [`ShardedEngine::enable_durability`]; must already hold state
    /// for [`ShardedEngine::recover`].
    pub dir: PathBuf,
    /// WAL records per `fsync`, per shard. 1 = durable on every event
    /// (zero loss window, slowest); larger values batch the syncs and
    /// risk at most that many acknowledged-but-unsynced events per
    /// shard on a crash. Must be ≥ 1.
    pub fsync_every: u32,
    /// Write an incremental checkpoint automatically every this many
    /// routed events (0 = manual [`ShardedEngine::checkpoint`] only).
    /// Auto-checkpoints are skipped while a reshard or refresh epoch
    /// is in flight and retried on the next ingest after it clears.
    pub checkpoint_every_events: u64,
}

impl DurabilityConfig {
    /// Durability into `dir` with the default cadences: fsync every 64
    /// records, manual checkpoints only.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            fsync_every: 64,
            checkpoint_every_events: 0,
        }
    }
}

/// What [`ShardedEngine::recover`] found and did. The `replayed`
/// records are the exact events re-applied on top of the checkpoint
/// chain — the chaos harness uses them to reconstruct the acknowledged
/// stream a recovered engine must be bit-identical to.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Checkpoints in the usable chain (epochs `0..checkpoints_loaded`).
    pub checkpoints_loaded: usize,
    /// A trailing checkpoint file failed validation and was ignored
    /// (the shape a crash *during* a checkpoint write leaves behind).
    pub trailing_checkpoint_skipped: bool,
    /// Global sequence number the newest usable checkpoint is
    /// consistent with; replay starts after it.
    pub watermark: u64,
    /// Distinct users restored from checkpoint blobs.
    pub users_restored: usize,
    /// WAL files scanned (including files of shards retired by past
    /// fleet shapes — their records still replay).
    pub wal_files: usize,
    /// Records that survived scanning across all WAL files.
    pub wal_records: usize,
    /// Surviving records with `seq > watermark`, ascending by `seq` —
    /// exactly what was re-applied to the checkpoint state.
    pub replayed: Vec<WalRecord>,
    /// WAL files whose tail failed validation (torn write or bit flip).
    pub torn_files: usize,
    /// Bytes truncated off those tails.
    pub truncated_bytes: u64,
    /// Highest sequence number seen anywhere (watermark included); the
    /// recovered engine's sequence counter resumes after it, so new
    /// events never collide with surviving records.
    pub max_seq: u64,
    /// Point-in-time restore only ([`ShardedEngine::recover_at`]): the
    /// highest sequence number actually applied — the checkpoint
    /// watermark if no WAL record `<=` the target survived, otherwise
    /// the last replayed record's `seq`. `None` for a full
    /// [`ShardedEngine::recover`].
    pub stopped_at: Option<u64>,
}

/// Router-side durability state (the worker-side halves are the
/// per-shard [`WalWriter`]s).
pub(super) struct DurabilityState {
    pub(super) cfg: DurabilityConfig,
    /// Checkpoint epochs written so far (the next one gets this index).
    checkpoints: u64,
    /// Watermark of the newest checkpoint.
    watermark: u64,
    /// Byte size of the newest checkpoint file.
    last_checkpoint_bytes: u64,
    /// `events_routed` as of the newest checkpoint — the difference is
    /// the replay debt a crash right now would pay.
    events_at_checkpoint: u64,
}

/// Open `shards`' WAL writers under `cfg.dir` — all of them, before
/// the caller arms a single worker, so an I/O failure on any one log
/// leaves the fleet exactly as it was. A past fleet life may have left
/// a shard id's file behind (scale-in then scale-out, or a crash):
/// append to it — its old records are still replayable, sequence
/// numbers keep the global order.
pub(super) fn open_wals(
    cfg: &DurabilityConfig,
    shards: Range<usize>,
) -> Result<Vec<WalWriter>, WalError> {
    shards
        .map(|s| {
            let path = wal::wal_path(&cfg.dir, s);
            if path.exists() {
                WalWriter::reopen(&path, cfg.fsync_every)
            } else {
                WalWriter::create(&path, cfg.fsync_every)
            }
        })
        .collect()
}

impl<M: InductiveUiModel + 'static> ShardedEngine<M> {
    /// Arm the durability layer: an epoch-0 *full* checkpoint of the
    /// current state is written atomically, then every shard worker
    /// gets a [`WalWriter`] appending each ingested event (before
    /// applying it) to `dir/wal-{shard}.log`. From here on a
    /// crash loses at most the unsynced WAL tail (bounded by
    /// `cfg.fsync_every` records per shard); everything acknowledged
    /// and synced is reconstructed bit-identically by
    /// [`ShardedEngine::recover`].
    ///
    /// Rejects a directory that already holds WAL or checkpoint files
    /// — that state belongs to a previous life of some fleet; recover
    /// from it (or point at a fresh directory) instead of silently
    /// interleaving two histories. Rejects with
    /// [`ServingError::EpochInFlight`] while an epoch is in flight.
    pub fn enable_durability(&mut self, cfg: DurabilityConfig) -> Result<(), ServingError> {
        if self.durability.is_some() {
            return Err(ServingError::Durability(
                "durability is already enabled".to_string(),
            ));
        }
        self.idle_for("enable_durability", Blocks::AnyEpoch)?;
        if cfg.fsync_every == 0 {
            return Err(ServingError::InvalidConfig(
                "fsync_every must be ≥ 1".to_string(),
            ));
        }
        std::fs::create_dir_all(&cfg.dir).map_err(WalError::from)?;
        if !wal::list_wal_files(&cfg.dir)?.is_empty()
            || !wal::list_checkpoints(&cfg.dir)?.is_empty()
        {
            return Err(ServingError::Durability(format!(
                "{} already holds durability state; use ShardedEngine::recover \
                 (or point at an empty directory)",
                cfg.dir.display()
            )));
        }
        // Epoch 0 first: the full baseline every later incremental diff
        // stacks on. The export rides the FIFO queues, so it reflects
        // exactly the events routed so far — `watermark`. A failure
        // here leaves the directory and every worker untouched, so the
        // call can be retried; a crash after it leaves a directory
        // `recover` accepts (it creates the logs that are missing).
        let watermark = self.events_routed;
        let blobs = self.checkpoint_blobs(true);
        let bytes = wal::write_checkpoint_atomic(&cfg.dir, 0, watermark, &blobs)?;
        // `&mut self` is held throughout, so nothing is routed between
        // the export above and the arming below.
        for (s, wal) in open_wals(&cfg, 0..self.txs.len())?.into_iter().enumerate() {
            let dirty = Vec::new();
            self.send(s, ShardMsg::Durability { wal, dirty });
        }
        self.durability = Some(DurabilityState {
            cfg,
            checkpoints: 1,
            watermark,
            last_checkpoint_bytes: bytes,
            events_at_checkpoint: watermark,
        });
        Ok(())
    }

    /// The armed durability state, or the typed "not enabled" error.
    fn armed(&mut self) -> Result<&mut DurabilityState, ServingError> {
        self.durability
            .as_mut()
            .ok_or_else(|| ServingError::Durability("durability is not enabled".to_string()))
    }

    /// Write the next *incremental* checkpoint: every shard exports
    /// only the users dirtied since the previous checkpoint (events
    /// ingested or migrations received), and the file is written
    /// atomically (temp + fsync + rename + dir fsync). Returns the new
    /// checkpoint epoch.
    ///
    /// The watermark is captured on the router before the export fans
    /// out; because the router is the single writer of every queue and
    /// queues are FIFO, the export reflects exactly the events with
    /// `seq <= watermark` — a consistent cut with no stop-the-world
    /// pause. Rejects mid-reshard / mid-refresh with
    /// [`ServingError::EpochInFlight`] (ownership must not shift under
    /// the export), and when durability was never enabled.
    ///
    /// After the checkpoint lands, every shard **rotates its WAL**
    /// ([`WalWriter::rotate`]): the active segment is sealed (every
    /// record in it has `seq <=` the new watermark — the router routed
    /// nothing between the export and the rotation), and sealed
    /// segments covered by the *previous* watermark are pruned. WAL
    /// disk therefore stays bounded by roughly one checkpoint interval
    /// per shard; the extra interval of slack is what recovery's
    /// trailing-corrupt-checkpoint fallback replays from.
    pub fn checkpoint(&mut self) -> Result<u64, ServingError> {
        let prev_watermark = self.armed()?.watermark;
        self.idle_for("checkpoint", Blocks::AnyEpoch)?;
        let watermark = self.events_routed;
        let blobs = self.checkpoint_blobs(false);
        let st = self.armed()?;
        let epoch = st.checkpoints;
        let bytes = wal::write_checkpoint_atomic(&st.cfg.dir, epoch, watermark, &blobs)?;
        st.checkpoints += 1;
        st.watermark = watermark;
        st.last_checkpoint_bytes = bytes;
        st.events_at_checkpoint = watermark;
        self.fan_out(|reply| ShardMsg::WalRotate {
            seal_upto: watermark,
            prune_upto: prev_watermark,
            reply,
        });
        Ok(epoch)
    }

    /// Every shard's checkpoint export, in shard order: the dirty
    /// users' state blobs, or (`full`) every owned user's.
    fn checkpoint_blobs(&mut self, full: bool) -> Vec<Vec<u8>> {
        self.fan_out(|reply| ShardMsg::CheckpointExport { full, reply })
            .into_iter()
            .flatten()
            .collect()
    }

    /// Force every shard's WAL onto stable storage now, regardless of
    /// the `fsync_every` cadence, and return the per-shard statuses
    /// (shard order). After this returns, every acknowledged event is
    /// crash-durable.
    pub fn wal_sync(&mut self) -> Result<Vec<WalStatus>, ServingError> {
        self.wal_statuses(true)
    }

    /// Per-shard WAL statuses (shard order) without forcing a sync —
    /// `len - synced_len` is each shard's current crash loss window in
    /// bytes. Rides the queues, so it reflects every event routed
    /// before the call.
    pub fn wal_status(&mut self) -> Result<Vec<WalStatus>, ServingError> {
        self.wal_statuses(false)
    }

    fn wal_statuses(&mut self, sync: bool) -> Result<Vec<WalStatus>, ServingError> {
        self.armed()?;
        Ok(self
            .fan_out(|reply| ShardMsg::Wal { sync, reply })
            .into_iter()
            .flatten()
            .collect())
    }

    /// The `durability` section of the serving stats (all zeros when
    /// durability was never armed).
    pub(super) fn durability_stats(&mut self) -> DurabilityStats {
        let Ok(statuses) = self.wal_statuses(false) else {
            return DurabilityStats::default();
        };
        let st = self.durability.as_ref().expect("statuses imply armed");
        DurabilityStats {
            enabled: true,
            wal_records: statuses.iter().map(|s| s.appended).sum(),
            wal_bytes: statuses.iter().map(|s| s.len).sum(),
            wal_unsynced_bytes: statuses.iter().map(|s| s.len - s.synced_len).sum(),
            wal_syncs: statuses.iter().map(|s| s.syncs).sum(),
            checkpoints: st.checkpoints,
            checkpoint_watermark: st.watermark,
            last_checkpoint_bytes: st.last_checkpoint_bytes,
            events_since_checkpoint: self.events_routed - st.events_at_checkpoint,
        }
    }

    /// Auto-checkpoint trigger, called after each routed ingest. Defers
    /// (does not fail) while an epoch is in flight; the next ingest
    /// after the epoch clears fires it.
    pub(super) fn maybe_auto_checkpoint(&mut self) -> Result<(), ServingError> {
        let due = self.durability.as_ref().is_some_and(|st| {
            st.cfg.checkpoint_every_events > 0
                && self.events_routed - st.events_at_checkpoint >= st.cfg.checkpoint_every_events
        });
        if due && self.idle_for("checkpoint", Blocks::AnyEpoch).is_ok() {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// Rebuild a fleet from a durability directory: load the
    /// checkpoint chain (newest valid contiguous prefix, overlaying
    /// each user's newest blob), scan every WAL file (truncating torn
    /// or corrupt tails at the last whole valid frame — a bad frame is
    /// never partially applied), replay the surviving records with
    /// `seq > watermark` in global sequence order, and come up with
    /// durability re-armed on the same directory.
    ///
    /// The result is **bit-identical** — snapshot bytes and
    /// recommendation score bits — to a fleet that never crashed and
    /// was fed the same acknowledged stream (checkpoint watermark +
    /// replayed records); `tests/chaos.rs` pins this under seeded
    /// crash/corruption schedules. `cfg.n_shards` is free to differ
    /// from the crashed fleet's: the artifact formats are
    /// whole-population, so recovery doubles as offline resharding.
    ///
    /// A corrupt checkpoint *inside* the chain is a hard error (users
    /// whose only export lives there would silently lose state); a
    /// corrupt *trailing* checkpoint — the shape a crash during a
    /// checkpoint write leaves — is skipped, falling back to the
    /// previous epoch plus deeper WAL replay.
    pub fn recover(
        sccf: Sccf<M>,
        cfg: ShardedConfig,
        durability: DurabilityConfig,
    ) -> Result<(Self, RecoveryReport), ServingError> {
        Self::recover_impl(sccf, cfg, durability, None)
    }

    /// Point-in-time restore: like [`ShardedEngine::recover`], but stop
    /// at global sequence number `target` — load only checkpoints whose
    /// watermark is `<= target` and replay only WAL records with
    /// `seq <= target`. The report's `stopped_at` records the highest
    /// sequence actually applied (it can be below `target` when the
    /// stream never reached it).
    ///
    /// The restored fleet comes up with durability **disarmed**: its
    /// state deliberately predates records still on disk, so arming it
    /// would assign new sequence numbers that collide with the
    /// surviving suffix. This is the inspection / debugging shape
    /// ("what did the fleet serve as of seq N?") — point it at a fresh
    /// directory via [`ShardedEngine::enable_durability`] to make the
    /// rewound state durable in its own right. Errors if even the
    /// epoch-0 checkpoint lies past `target` (nothing on disk is old
    /// enough to rewind to).
    pub fn recover_at(
        sccf: Sccf<M>,
        cfg: ShardedConfig,
        durability: DurabilityConfig,
        target: u64,
    ) -> Result<(Self, RecoveryReport), ServingError> {
        Self::recover_impl(sccf, cfg, durability, Some(target))
    }

    fn recover_impl(
        sccf: Sccf<M>,
        cfg: ShardedConfig,
        durability: DurabilityConfig,
        target: Option<u64>,
    ) -> Result<(Self, RecoveryReport), ServingError> {
        if durability.fsync_every == 0 {
            return Err(ServingError::InvalidConfig(
                "fsync_every must be ≥ 1".to_string(),
            ));
        }
        let dir = durability.dir.clone();
        let listed = wal::list_checkpoints(&dir)?;
        if listed.is_empty() {
            return Err(ServingError::Durability(format!(
                "{} holds no checkpoint; enable_durability writes epoch 0 before any crash \
                 can need recovery",
                dir.display()
            )));
        }
        // The usable chain is the contiguous valid prefix 0..=k. A gap
        // or a corrupt file mid-chain loses users silently — hard
        // error. A corrupt *last* file is the crash-during-write shape
        // — skip it and replay deeper instead.
        let mut chain: Vec<wal::Checkpoint> = Vec::new();
        let mut trailing_checkpoint_skipped = false;
        for (i, (epoch, path)) in listed.iter().enumerate() {
            if *epoch != i as u64 {
                return Err(ServingError::Durability(format!(
                    "checkpoint chain has a hole: expected epoch {i}, found {epoch}"
                )));
            }
            let decoded = std::fs::read(path)
                .map_err(WalError::from)
                .and_then(|b| wal::decode_checkpoint(&b));
            match decoded {
                Ok(ck) if ck.epoch == *epoch => chain.push(ck),
                Ok(ck) => {
                    return Err(ServingError::Durability(format!(
                        "checkpoint file {} declares epoch {} (name/content mismatch)",
                        path.display(),
                        ck.epoch
                    )));
                }
                Err(_) if i + 1 == listed.len() && i > 0 => {
                    trailing_checkpoint_skipped = true;
                    break;
                }
                Err(e) => {
                    return Err(ServingError::Durability(format!(
                        "checkpoint epoch {epoch} is corrupt mid-chain: {e}"
                    )));
                }
            }
        }
        // Point-in-time: use only the chain prefix consistent with the
        // target (a checkpoint past it already contains state the
        // rewind must not see).
        if let Some(t) = target {
            let keep = chain.partition_point(|ck| ck.watermark <= t);
            if keep == 0 {
                return Err(ServingError::Durability(format!(
                    "cannot restore to seq {t}: the epoch-0 checkpoint's watermark is already {}",
                    chain[0].watermark
                )));
            }
            if keep < chain.len() {
                chain.truncate(keep);
                trailing_checkpoint_skipped = false;
            }
        }
        let newest = chain.last().expect("non-empty chain");
        let watermark = newest.watermark;
        let last_checkpoint_bytes = wal::checkpoint_path(&dir, newest.epoch)
            .metadata()
            .map(|m| m.len())
            .unwrap_or(0);
        let checkpoints_loaded = chain.len();

        // Overlay newest-blob-per-user across the chain (ascending
        // epochs: later writes win).
        let n_users = sccf.user_count();
        let mut histories: Vec<Vec<u32>> = vec![Vec::new(); n_users];
        let mut seen = vec![false; n_users];
        for ck in &chain {
            for blob in &ck.blobs {
                let (user, _rep, history) = decode_user_state(blob)?;
                if user as usize >= n_users {
                    return Err(ServingError::Durability(format!(
                        "checkpoint blob for user {user} exceeds the population of {n_users}"
                    )));
                }
                seen[user as usize] = true;
                histories[user as usize] = history;
            }
        }
        let users_restored = seen.iter().filter(|&&s| s).count();

        // Scan every WAL file, repairing tails in place; then replay
        // everything past the watermark in global sequence order.
        let files = wal::list_wal_files(&dir)?;
        let mut all_records: Vec<WalRecord> = Vec::new();
        let mut torn_files = 0usize;
        let mut truncated_bytes = 0u64;
        for f in &files {
            let (records, tail, cut) = wal::read_and_repair_wal(f)?;
            if tail != WalTail::Clean {
                torn_files += 1;
                truncated_bytes += cut;
            }
            all_records.extend(records);
        }
        let wal_records = all_records.len();
        let max_seq = all_records
            .iter()
            .map(|r| r.seq)
            .max()
            .unwrap_or(0)
            .max(watermark);
        let mut replayed: Vec<WalRecord> = all_records
            .into_iter()
            .filter(|r| r.seq > watermark && target.is_none_or(|t| r.seq <= t))
            .collect();
        replayed.sort_by_key(|r| r.seq);
        let stopped_at = target.map(|_| replayed.last().map_or(watermark, |r| r.seq));
        for r in &replayed {
            if r.user as usize >= n_users {
                return Err(ServingError::Durability(format!(
                    "wal record seq {} names user {} outside the population of {n_users}",
                    r.seq, r.user
                )));
            }
            histories[r.user as usize].push(r.item);
        }

        // Histories fully reconstructed: build the fleet (item-range
        // validation happens in try_new), then re-arm durability —
        // except for a point-in-time restore, whose state deliberately
        // predates records still on disk (see `recover_at`).
        let mut engine = Self::try_new(sccf, histories, cfg)?;
        if let Some(stopped) = stopped_at {
            engine.events_routed = stopped;
        } else {
            engine.events_routed = max_seq;
            let wals = open_wals(&durability, 0..engine.txs.len())?;
            for (s, wal) in wals.into_iter().enumerate() {
                // Replayed users must land in the next incremental
                // checkpoint — their newest durable blob predates the
                // replay.
                let dirty: Vec<u32> = replayed
                    .iter()
                    .filter(|r| engine.ring.route(r.user) == s)
                    .map(|r| r.user)
                    .collect();
                engine.send(s, ShardMsg::Durability { wal, dirty });
            }
            engine.durability = Some(DurabilityState {
                cfg: durability,
                checkpoints: checkpoints_loaded as u64,
                watermark,
                last_checkpoint_bytes,
                events_at_checkpoint: max_seq - replayed.len() as u64,
            });
        }
        let report = RecoveryReport {
            checkpoints_loaded,
            trailing_checkpoint_skipped,
            watermark,
            users_restored,
            wal_files: files.len(),
            wal_records,
            replayed,
            torn_files,
            truncated_bytes,
            max_seq,
            stopped_at,
        };
        Ok((engine, report))
    }
}
