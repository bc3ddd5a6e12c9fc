//! Deterministic crash-chaos harness for the durability layer.
//!
//! A seeded LCG scheduler interleaves every operation the serving
//! fleet supports — ingest bursts, recommendations, live-reshard
//! steps, tier-refresh steps, closed-loop policy ticks (a real
//! [`PolicyState`] sampling real stats and actuating scale/refresh
//! decisions), incremental checkpoints, forced WAL
//! syncs — with **kill-and-recover** cycles that simulate a process
//! crash at the file level: each shard's WAL is truncated back to a
//! point inside its unsynced tail (anything past the last `fsync` may
//! be missing after a real power cut), optionally bit-flipped inside
//! that same region (garbage partial writes), and occasionally the
//! *trailing* checkpoint file is attacked (the shape a crash during a
//! checkpoint write leaves behind). After every kill the harness
//! pins:
//!
//! 1. **Surviving-set exactness** — the records recovery replays are
//!    exactly the frames an independent [`wal::scan_wal`] of the
//!    attacked files predicts, and every event durable before the
//!    kill (explicitly synced, or covered by an unattacked
//!    checkpoint) is present: corruption is detected and truncated,
//!    never partially applied.
//! 2. **Bit-identity** — the recovered fleet's snapshot bytes and
//!    recommendation slates (ids *and* score bits) equal a
//!    never-crashed fleet fed the same acknowledged stream.
//!
//! Everything is driven by one `u64` seed: the schedule, the crash
//! points, the corruption, the recovery shard counts. Every panic
//! message carries that seed, so any CI failure replays locally with
//! `run_chaos(&world, &ChaosConfig::quick(seed))`.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::Path;

use sccf_core::{Sccf, SccfConfig, UserBasedConfig};
use sccf_data::LeaveOneOut;
use sccf_models::{Fism, FismConfig};
use sccf_serving::control::{Decision, Observation, PolicyConfig, PolicyState};
use sccf_serving::wal;
use sccf_serving::{
    DurabilityConfig, RecQuery, RouterKind, ServingApi, ServingError, ShardedConfig, ShardedEngine,
};

use crate::harness::{serving_sccf_config, serving_world, ServingWorld, WorldShape};

/// Deterministic scheduler randomness: a 64-bit LCG (Knuth's MMIX
/// constants) with an output xorshift so low bits are usable for
/// small moduli. Not cryptographic — replayable, which is the point.
pub struct Lcg {
    state: u64,
}

impl Lcg {
    pub fn new(seed: u64) -> Self {
        let mut lcg = Self {
            state: seed ^ 0x9E37_79B9_7F4A_7C15,
        };
        lcg.next();
        lcg
    }

    #[allow(clippy::should_implement_trait)] // infinite stream, not an Iterator
    pub fn next(&mut self) -> u64 {
        self.state = self
            .state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let x = self.state;
        x ^ (x >> 33)
    }

    /// Uniform-ish in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// True with probability `percent`/100.
    pub fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

/// The fixed world a chaos run perturbs: a small synthetic population,
/// a trained model frozen as bytes (so recovery and the reference
/// fleet rebuild the *same* floats), and the initial histories.
pub struct ChaosWorld {
    pub split: LeaveOneOut,
    pub histories: Vec<Vec<u32>>,
    pub n_users: usize,
    pub n_items: usize,
    model_bytes: Vec<u8>,
    fism_cfg: FismConfig,
}

impl ChaosWorld {
    /// Build once, run many seeds against it — training is the
    /// expensive part and is independent of the chaos schedule.
    pub fn build(world_seed: u64) -> Self {
        let shape = WorldShape {
            n_users: 48,
            n_items: 36,
            n_categories: 6,
            mean_len: 10.0,
            min_len: 4,
            dim: 8,
            epochs: 2,
        };
        let ServingWorld {
            split,
            histories,
            fism_cfg,
            fism,
        } = serving_world(&shape, world_seed);
        Self {
            n_users: split.n_users(),
            n_items: split.n_items(),
            histories,
            split,
            model_bytes: fism.save_bytes(),
            fism_cfg,
        }
    }

    /// A deterministic, independently rebuildable `Sccf`: every call
    /// returns bit-identical floats. Recovery consumes one and the
    /// reference fleet another — the bit-identity pin only means
    /// anything because both start from the same model state.
    pub fn fresh_sccf(&self) -> Sccf<Fism> {
        let fism = Fism::load_bytes(self.n_items, &self.fism_cfg, &self.model_bytes)
            .expect("own model bytes always rehydrate");
        let cfg = SccfConfig {
            user_based: UserBasedConfig {
                beta: 8,
                recent_window: 5,
            },
            candidate_n: 12,
            ..serving_sccf_config(1, 7)
        };
        let mut sccf = Sccf::build(fism, &self.split, cfg);
        sccf.refresh_for_test(&self.split);
        sccf
    }
}

/// One chaos schedule: the seed drives everything else.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    pub seed: u64,
    /// Scheduler steps (each step is one op, possibly a burst).
    pub steps: usize,
    /// WAL records per fsync — small values keep the torn-tail window
    /// interesting without making every event durable.
    pub fsync_every: u32,
    /// Auto-checkpoint cadence in routed events (0 = only the LCG's
    /// explicit checkpoint ops).
    pub checkpoint_every_events: u64,
    /// Inject torn tails and bit flips in the unsynced WAL region and
    /// occasionally attack the trailing checkpoint file. Off = pure
    /// clean-shutdown kills (every acknowledged event survives).
    pub corrupt: bool,
}

impl ChaosConfig {
    /// The tier-1 profile: short schedule, aggressive corruption.
    pub fn quick(seed: u64) -> Self {
        Self {
            seed,
            steps: 120,
            fsync_every: 4,
            checkpoint_every_events: 0,
            corrupt: true,
        }
    }
}

/// What one chaos run did — the counts CI asserts coverage over (a
/// schedule that never killed or never tore a tail proves nothing).
#[derive(Debug, Default, Clone)]
pub struct ChaosReport {
    pub steps: usize,
    pub ingested: u64,
    pub recommends: u64,
    pub reshards_begun: u64,
    pub reshard_steps: u64,
    pub refreshes_begun: u64,
    pub refresh_steps: u64,
    pub checkpoints: u64,
    /// Checkpoint / snapshot attempts correctly rejected with
    /// [`ServingError::EpochInFlight`] while a reshard or refresh was
    /// running.
    pub epoch_rejections: u64,
    pub wal_syncs: u64,
    pub kills: u64,
    pub torn_tails: u64,
    pub bit_flips: u64,
    pub checkpoint_attacks: u64,
    /// Kills after which recovery reported `trailing_checkpoint_skipped`.
    pub trailing_skips: u64,
    /// WAL records re-applied across all recoveries.
    pub replayed_total: u64,
    /// Acknowledged-but-undurable events lost to crashes (the loss
    /// window the fsync cadence buys; always 0 when `corrupt` is off).
    pub lost_events: u64,
    /// Closed-loop policy ticks taken: each sampled real fleet stats
    /// and ran [`PolicyState::decide`] on them.
    pub policy_ticks: u64,
    /// Reshards the *policy* (not the raw scheduler) initiated.
    pub policy_scales: u64,
    /// Tier refreshes (full or delta) the policy initiated. Kills can
    /// land while one is mid-flight — the recovery pin then covers
    /// crash-during-policy-epoch.
    pub policy_refreshes: u64,
}

/// Run one seeded chaos schedule to completion. Panics — with the seed
/// in the message — on any violated invariant. Returns the op counts.
pub fn run_chaos(world: &ChaosWorld, cfg: &ChaosConfig) -> ChaosReport {
    let seed = cfg.seed;
    let mut rng = Lcg::new(seed);
    let dir = std::env::temp_dir().join(format!("sccf_chaos_{}_{seed}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);

    let shard_cfg = |n: usize| ShardedConfig {
        n_shards: n,
        queue_capacity: 64,
        router: RouterKind::Consistent { vnodes: 32 },
    };

    let n_shards = 1 + rng.below(3) as usize;
    let mut engine = ShardedEngine::try_new(
        world.fresh_sccf(),
        world.histories.clone(),
        shard_cfg(n_shards),
    )
    .unwrap_or_else(|e| panic!("[chaos seed {seed}] initial fleet: {e}"));
    engine
        .enable_durability(DurabilityConfig {
            dir: dir.clone(),
            fsync_every: cfg.fsync_every,
            checkpoint_every_events: cfg.checkpoint_every_events,
        })
        .unwrap_or_else(|e| panic!("[chaos seed {seed}] enable_durability: {e}"));

    // The acknowledged stream, by router-assigned global sequence
    // number. Holes appear where a crash lost unsynced events; their
    // seqs are never reused (recovery resumes after the max surviving
    // seq), so the map stays the ground truth for "what the engine
    // state must reflect".
    let mut stream: BTreeMap<u64, (u32, u32)> = BTreeMap::new();
    let mut next_seq: u64 = 0;
    // Everything acknowledged up to durable_floor must survive every
    // later kill. Raised by explicit wal_sync (events since the last
    // recovery now sit in a synced WAL prefix no later corruption can
    // touch) and by recovery itself (the surviving stream is durable:
    // replayed frames live in repaired, synced files, and the rest is
    // covered by a checkpoint that — having carried a recovery — is no
    // longer attackable; see the freshness gate in kill_and_recover).
    let mut durable_floor: u64 = 0;
    // Watermark the last recovery restored from: checkpoints at or
    // below it predate a kill, so the crash-shaped trailing-checkpoint
    // attack must not target them.
    let mut last_recovery_wm: u64 = 0;
    // The closed-loop policy rides along: some steps are control-plane
    // ticks that sample *real* fleet stats and actuate whatever the
    // pure policy decides, through the same public epoch ops the raw
    // scheduler uses. Kills land on policy-begun epochs like any
    // other, so the recovery bit-identity pin covers policy-driven
    // fleets for free. The policy state itself lives host-side and
    // survives kills — exactly like an external control process.
    let mut policy = PolicyState::new(PolicyConfig {
        min_shards: 1,
        max_shards: 4,
        scale_up_pressure: 0.05,
        scale_down_pressure: 0.005,
        sustain_ticks: 2,
        scale_in_sustain_ticks: 8,
        reshard_cooldown: 3,
        refresh_staleness: 150,
        refresh_cooldown: 4,
    })
    .expect("chaos policy config");
    let mut policy_tick = 0u64;
    let (mut last_sends, mut last_stalls) = (0u64, 0u64);
    let mut report = ChaosReport {
        steps: cfg.steps,
        ..Default::default()
    };

    for step in 0..cfg.steps {
        match rng.below(100) {
            // Ingest a small burst.
            0..=49 => {
                let burst = 1 + rng.below(6);
                for _ in 0..burst {
                    let user = rng.below(world.n_users as u64) as u32;
                    let item = rng.below(world.n_items as u64) as u32;
                    engine
                        .try_ingest(user, item)
                        .unwrap_or_else(|e| panic!("[chaos seed {seed}] step {step} ingest: {e}"));
                    next_seq += 1;
                    stream.insert(next_seq, (user, item));
                }
                report.ingested += burst;
            }
            // Serve a recommendation (exercise the read path; the
            // bit-identity pin happens at kill time).
            50..=63 => {
                let user = rng.below(world.n_users as u64) as u32;
                let res = engine
                    .try_recommend(user, &RecQuery::top(5))
                    .unwrap_or_else(|e| panic!("[chaos seed {seed}] step {step} recommend: {e}"));
                assert!(
                    res.items.len() <= 5,
                    "[chaos seed {seed}] step {step}: slate overflow"
                );
                report.recommends += 1;
            }
            // Drive (or start) an incremental epoch.
            64..=71 => {
                if engine.is_migrating() {
                    engine.reshard_step().unwrap_or_else(|e| {
                        panic!("[chaos seed {seed}] step {step} reshard_step: {e}")
                    });
                    report.reshard_steps += 1;
                } else if engine.is_refreshing() {
                    engine.refresh_step().unwrap_or_else(|e| {
                        panic!("[chaos seed {seed}] step {step} refresh_step: {e}")
                    });
                    report.refresh_steps += 1;
                } else if rng.chance(50) {
                    let to = 1 + rng.below(3) as usize;
                    engine
                        .begin_reshard(shard_cfg(to), 4 + rng.below(8) as usize)
                        .unwrap_or_else(|e| {
                            panic!("[chaos seed {seed}] step {step} begin_reshard: {e}")
                        });
                    report.reshards_begun += 1;
                } else {
                    engine
                        .begin_refresh(8 + rng.below(16) as usize)
                        .unwrap_or_else(|e| {
                            panic!("[chaos seed {seed}] step {step} begin_refresh: {e}")
                        });
                    report.refreshes_begun += 1;
                }
            }
            // A control-plane tick: sample real stats, feed the pure
            // policy, actuate its decision.
            72..=78 => {
                let stats = engine
                    .serving_stats()
                    .unwrap_or_else(|e| panic!("[chaos seed {seed}] step {step} stats: {e}"));
                let d_sends = stats.pressure.sends.saturating_sub(last_sends);
                let d_stalls = stats.pressure.stalls.saturating_sub(last_stalls);
                last_sends = stats.pressure.sends;
                last_stalls = stats.pressure.stalls;
                let stall_ratio = if d_sends == 0 {
                    0.0
                } else {
                    d_stalls as f64 / d_sends as f64
                };
                let occupancy =
                    stats.pressure.peak_queue as f64 / stats.pressure.queue_capacity.max(1) as f64;
                policy_tick += 1;
                let obs = Observation {
                    tick: policy_tick,
                    n_shards: engine.n_shards(),
                    pressure: stall_ratio.max(occupancy),
                    staleness: stats.neighborhood.events_since_refresh,
                    tier_present: stats.neighborhood.two_tier,
                    epoch_in_flight: engine.is_migrating() || engine.is_refreshing(),
                };
                match policy.decide(&obs) {
                    Decision::Hold => {}
                    Decision::ScaleTo(m) => {
                        engine
                            .begin_reshard(shard_cfg(m), 4 + rng.below(8) as usize)
                            .unwrap_or_else(|e| {
                                panic!("[chaos seed {seed}] step {step} policy reshard: {e}")
                            });
                        report.reshards_begun += 1;
                        report.policy_scales += 1;
                    }
                    Decision::Refresh => {
                        engine
                            .begin_refresh(8 + rng.below(16) as usize)
                            .unwrap_or_else(|e| {
                                panic!("[chaos seed {seed}] step {step} policy refresh: {e}")
                            });
                        report.refreshes_begun += 1;
                        report.policy_refreshes += 1;
                    }
                }
                report.policy_ticks += 1;
            }
            // Checkpoint — and pin the whole-engine ops' typed
            // rejection while an epoch is in flight.
            79..=85 => {
                let in_epoch = engine.is_migrating() || engine.is_refreshing();
                match engine.checkpoint() {
                    Ok(_) => {
                        assert!(
                            !in_epoch,
                            "[chaos seed {seed}] step {step}: checkpoint succeeded mid-epoch"
                        );
                        report.checkpoints += 1;
                    }
                    Err(ServingError::EpochInFlight { .. }) => {
                        assert!(
                            in_epoch,
                            "[chaos seed {seed}] step {step}: spurious EpochInFlight"
                        );
                        // Snapshot must refuse for the same reason.
                        assert!(
                            matches!(
                                engine.try_snapshot(),
                                Err(ServingError::EpochInFlight { .. })
                            ),
                            "[chaos seed {seed}] step {step}: snapshot raced an epoch"
                        );
                        report.epoch_rejections += 1;
                    }
                    Err(e) => panic!("[chaos seed {seed}] step {step} checkpoint: {e}"),
                }
            }
            // Force durability of everything acknowledged so far.
            86..=91 => {
                engine
                    .wal_sync()
                    .unwrap_or_else(|e| panic!("[chaos seed {seed}] step {step} wal_sync: {e}"));
                durable_floor = durable_floor.max(next_seq);
                report.wal_syncs += 1;
                if std::env::var("SCCF_CHAOS_DEBUG").is_ok() {
                    eprintln!("[dbg] step {step}: wal_sync floor -> {durable_floor}");
                }
            }
            // Kill the fleet and recover from disk.
            _ => {
                let (e, max_seq, wm) = kill_and_recover(
                    world,
                    engine,
                    &dir,
                    cfg,
                    &mut rng,
                    &mut stream,
                    durable_floor,
                    last_recovery_wm,
                    &mut report,
                );
                engine = e;
                // The crash took any in-flight epoch with it; the
                // sequence counter resumes after the highest surviving
                // seq, exactly like the recovered router's. Everything
                // that survived is durable from here on. The recovered
                // engine's pressure counters restart at zero, so the
                // policy's per-window baselines restart with them.
                last_sends = 0;
                last_stalls = 0;
                next_seq = max_seq;
                durable_floor = durable_floor.max(max_seq);
                last_recovery_wm = wm;
            }
        }
    }
    // Every seed must exercise the recovery pin at least once.
    if report.kills == 0 {
        engine = kill_and_recover(
            world,
            engine,
            &dir,
            cfg,
            &mut rng,
            &mut stream,
            durable_floor,
            last_recovery_wm,
            &mut report,
        )
        .0;
    }
    engine.shutdown();
    let _ = fs::remove_dir_all(&dir);
    report
}

/// Simulate a crash (at the file level) and recover, asserting the
/// surviving-set prediction, the loss-window guarantee, and
/// bit-identity against a never-crashed reference fleet.
#[allow(clippy::too_many_arguments)]
fn kill_and_recover(
    world: &ChaosWorld,
    engine: ShardedEngine<Fism>,
    dir: &Path,
    cfg: &ChaosConfig,
    rng: &mut Lcg,
    stream: &mut BTreeMap<u64, (u32, u32)>,
    durable_floor: u64,
    last_recovery_wm: u64,
    report: &mut ChaosReport,
) -> (ShardedEngine<Fism>, u64, u64) {
    let seed = cfg.seed;
    let mut engine = engine;

    // Freeze the fleet's file-level truth, then let the threads exit
    // gracefully (a graceful exit fsyncs — the truncation below undoes
    // exactly the part a real crash would never have persisted).
    engine
        .flush()
        .unwrap_or_else(|e| panic!("[chaos seed {seed}] pre-kill flush: {e}"));
    let statuses = engine
        .wal_status()
        .unwrap_or_else(|e| panic!("[chaos seed {seed}] pre-kill wal_status: {e}"));
    engine.shutdown();

    // Crash the WAL tails: anything in [synced_len, len) may be
    // missing or garbage after a power cut. Files of shards retired by
    // earlier scale-ins were fully synced at retirement and stay
    // untouched — exactly like a real crash.
    for (s, st) in statuses.iter().enumerate() {
        let path = wal::wal_path(dir, s);
        let bytes = fs::read(&path)
            .unwrap_or_else(|e| panic!("[chaos seed {seed}] read {}: {e}", path.display()));
        assert_eq!(
            bytes.len() as u64,
            st.len,
            "[chaos seed {seed}] shard {s}: on-disk length diverges from writer accounting"
        );
        let (lo, hi) = (st.synced_len, st.len);
        if lo == hi || !cfg.corrupt {
            continue;
        }
        let cut = lo + rng.below(hi - lo + 1);
        let mut kept = bytes[..cut as usize].to_vec();
        if cut < hi {
            report.torn_tails += 1;
        }
        let mut flip = None;
        if cut > lo && rng.chance(40) {
            let pos = lo + rng.below(cut - lo);
            kept[pos as usize] ^= 1 << rng.below(8);
            report.bit_flips += 1;
            flip = Some(pos);
        }
        if std::env::var("SCCF_CHAOS_DEBUG").is_ok() {
            eprintln!(
                "[dbg] kill #{} shard {s}: lo={lo} hi={hi} cut={cut} flip={flip:?}",
                report.kills
            );
        }
        fs::write(&path, &kept)
            .unwrap_or_else(|e| panic!("[chaos seed {seed}] tear {}: {e}", path.display()));
    }

    // The (still all-valid) checkpoint chain tells us the expected
    // watermark; optionally attack the trailing file — recovery must
    // fall back one epoch and replay deeper, never reject the chain.
    let listed = wal::list_checkpoints(dir)
        .unwrap_or_else(|e| panic!("[chaos seed {seed}] list_checkpoints: {e}"));
    // The trailing file may already be invalid: a previous kill's
    // attack survives on disk until the next checkpoint overwrites its
    // epoch. Recovery skips it again — mirror that. Anything invalid
    // mid-chain is a harness bug.
    let mut watermarks: Vec<u64> = Vec::with_capacity(listed.len());
    let mut trailing_already_corrupt = false;
    for (i, (_, path)) in listed.iter().enumerate() {
        match wal::decode_checkpoint(&fs::read(path).unwrap()) {
            Ok(ck) => watermarks.push(ck.watermark),
            Err(_) if i + 1 == listed.len() && i > 0 => trailing_already_corrupt = true,
            Err(e) => panic!("[chaos seed {seed}] checkpoint chain invalid mid-chain: {e}"),
        }
    }
    // Attack only a checkpoint written since the last recovery: the
    // shape is a crash racing a checkpoint write. A checkpoint that
    // already carried a recovery is established durable state — events
    // whose torn WAL frames it replaced have no other copy, so
    // corrupting it would be modelling media rot, not a crash.
    let trailing_fresh = watermarks.last().is_some_and(|&w| w > last_recovery_wm);
    let mut expect_trailing_skip = trailing_already_corrupt;
    if cfg.corrupt
        && !trailing_already_corrupt
        && trailing_fresh
        && listed.len() > 1
        && rng.chance(30)
    {
        let (_, last) = listed.last().expect("non-empty");
        let mut bytes = fs::read(last).unwrap();
        if rng.chance(50) && bytes.len() > 16 {
            let keep = 8 + rng.below((bytes.len() - 8) as u64) as usize;
            bytes.truncate(keep);
        } else {
            let pos = rng.below(bytes.len() as u64) as usize;
            bytes[pos] ^= 0x20;
        }
        fs::write(last, &bytes).unwrap();
        watermarks.pop();
        expect_trailing_skip = true;
        report.checkpoint_attacks += 1;
    }
    let expected_watermark = *watermarks
        .last()
        .unwrap_or_else(|| panic!("[chaos seed {seed}] no usable checkpoint"));

    // Independent prediction of the replay set: scan the attacked
    // files ourselves with the low-level scanner.
    let mut predicted: Vec<u64> = Vec::new();
    for f in wal::list_wal_files(dir).unwrap() {
        let scan = wal::scan_wal(&fs::read(&f).unwrap())
            .unwrap_or_else(|e| panic!("[chaos seed {seed}] scan {}: {e}", f.display()));
        predicted.extend(
            scan.records
                .iter()
                .filter(|(_, r)| r.seq > expected_watermark)
                .map(|(_, r)| r.seq),
        );
    }
    predicted.sort_unstable();

    // Recover — possibly into a different shard count than the fleet
    // died with (the artifacts are whole-population).
    let to_shards = 1 + rng.below(3) as usize;
    let shard_cfg = ShardedConfig {
        n_shards: to_shards,
        queue_capacity: 64,
        router: RouterKind::Consistent { vnodes: 32 },
    };
    let (mut recovered, rec) = ShardedEngine::recover(
        world.fresh_sccf(),
        shard_cfg.clone(),
        DurabilityConfig {
            dir: dir.to_path_buf(),
            fsync_every: cfg.fsync_every,
            checkpoint_every_events: cfg.checkpoint_every_events,
        },
    )
    .unwrap_or_else(|e| panic!("[chaos seed {seed}] kill #{}: recover: {e}", report.kills));

    assert_eq!(
        rec.watermark, expected_watermark,
        "[chaos seed {seed}] kill #{}: recovery picked the wrong checkpoint watermark",
        report.kills
    );
    assert_eq!(
        rec.trailing_checkpoint_skipped, expect_trailing_skip,
        "[chaos seed {seed}] kill #{}: trailing-checkpoint handling diverged",
        report.kills
    );
    let replayed_seqs: Vec<u64> = rec.replayed.iter().map(|r| r.seq).collect();
    assert_eq!(
        replayed_seqs, predicted,
        "[chaos seed {seed}] kill #{}: replay set diverges from the independent scan",
        report.kills
    );
    for r in &rec.replayed {
        assert_eq!(
            stream.get(&r.seq),
            Some(&(r.user, r.item)),
            "[chaos seed {seed}] kill #{}: replayed seq {} carries the wrong event",
            report.kills,
            r.seq
        );
    }

    // Prune the acknowledged stream to what survived; everything
    // durable before the kill — synced into a WAL prefix, restored by
    // an earlier recovery, or covered by the surviving (post-attack)
    // checkpoint chain — must be in it.
    let durable_floor = durable_floor.max(expected_watermark);
    let surviving: BTreeSet<u64> = replayed_seqs.iter().copied().collect();
    if std::env::var("SCCF_CHAOS_DEBUG").is_ok() {
        eprintln!(
            "[dbg] kill #{}: wm={expected_watermark} floor={durable_floor} \
             watermarks={watermarks:?} replayed={replayed_seqs:?} max_seq={}",
            report.kills, rec.max_seq
        );
    }
    let lost: Vec<u64> = stream
        .keys()
        .copied()
        .filter(|&s| s > expected_watermark && !surviving.contains(&s))
        .collect();
    for s in &lost {
        assert!(
            *s > durable_floor,
            "[chaos seed {seed}] kill #{}: event seq {s} was durable (floor {durable_floor}) \
             but lost",
            report.kills
        );
        stream.remove(s);
    }
    report.lost_events += lost.len() as u64;
    report.replayed_total += replayed_seqs.len() as u64;
    report.trailing_skips += u64::from(rec.trailing_checkpoint_skipped);

    // The headline pin: bit-identity against a never-crashed fleet fed
    // the same acknowledged stream in sequence order.
    let mut reference =
        ShardedEngine::try_new(world.fresh_sccf(), world.histories.clone(), shard_cfg)
            .unwrap_or_else(|e| panic!("[chaos seed {seed}] reference fleet: {e}"));
    for &(user, item) in stream.values() {
        reference
            .try_ingest(user, item)
            .unwrap_or_else(|e| panic!("[chaos seed {seed}] reference ingest: {e}"));
    }
    reference
        .flush()
        .unwrap_or_else(|e| panic!("[chaos seed {seed}] reference flush: {e}"));
    let got = recovered
        .try_snapshot()
        .unwrap_or_else(|e| panic!("[chaos seed {seed}] recovered snapshot: {e}"));
    let want = reference
        .try_snapshot()
        .unwrap_or_else(|e| panic!("[chaos seed {seed}] reference snapshot: {e}"));
    assert!(
        got == want,
        "[chaos seed {seed}] kill #{}: recovered snapshot bytes diverge from the \
         never-crashed reference ({} vs {} bytes)",
        report.kills,
        got.len(),
        want.len()
    );
    for _ in 0..4 {
        let user = rng.below(world.n_users as u64) as u32;
        let a = recovered
            .try_recommend(user, &RecQuery::top(5))
            .unwrap_or_else(|e| panic!("[chaos seed {seed}] recovered recommend: {e}"));
        let b = reference
            .try_recommend(user, &RecQuery::top(5))
            .unwrap_or_else(|e| panic!("[chaos seed {seed}] reference recommend: {e}"));
        let abits: Vec<(u32, u32)> = a.items.iter().map(|s| (s.id, s.score.to_bits())).collect();
        let bbits: Vec<(u32, u32)> = b.items.iter().map(|s| (s.id, s.score.to_bits())).collect();
        assert_eq!(
            abits, bbits,
            "[chaos seed {seed}] kill #{}: user {user}'s slate diverges from the \
             never-crashed reference",
            report.kills
        );
    }
    reference.shutdown();

    report.kills += 1;
    (recovered, rec.max_seq, rec.watermark)
}
