//! Closed-loop control plane: autoscaling and tier-refresh policy.
//!
//! Two layers, split so the decision logic is testable without a
//! fleet:
//!
//! * [`PolicyState`] — a **pure, wall-clock-free decision function**.
//!   Each virtual-time tick it consumes one [`Observation`] (stall
//!   ratio, tier staleness, epoch-in-flight flag) and emits one
//!   [`Decision`]. Hysteresis bands with sustain streaks keep it from
//!   flapping: scaling fires only after `sustain_ticks` consecutive
//!   observations beyond a band edge, the dead band between the edges
//!   resets both streaks, and cooldowns space consecutive actions.
//!   Given the same observation sequence it replays the same decision
//!   sequence, bit for bit — the property the seeded simulation
//!   harness in `tests/control.rs` leans on.
//! * [`ControlDriver`] — the actuator. It owns a [`ShardedEngine`],
//!   samples [`ServingStats`] each tick, feeds the policy, and
//!   executes **at most one actuator step per tick**: begin a reshard
//!   or refresh epoch when the policy says so, otherwise advance any
//!   in-flight epoch by a single incremental step. Ingestion keeps
//!   flowing between ticks; the driver never blocks on a whole epoch.
//!
//! The pressure signal combines the two backpressure measures in
//! [`PressureStats`]: the *stall ratio* (fraction of sends in the
//! last tick window that blocked on a full queue — the saturation
//! hard edge) and the *peak queue occupancy* (deepest any shard
//! queue stood at a send, as a fraction of capacity — which rises
//! smoothly *before* sends start blocking). The driver feeds the
//! policy `max(stall_ratio, peak_occupancy)` so a queue running at
//! 98% of capacity registers as pressure even when capacity exactly
//! matches the arrival rate and nothing ever quite blocks.
//!
//! Freshness is `events_since_refresh` from [`NeighborhoodStats`].
//! When the threshold trips, the policy asks for a refresh and
//! [`ShardedEngine::begin_refresh`] picks the kind: a **delta** that
//! splices only the dirty users whenever the installed tier came from
//! this fleet's own refresh pipeline, a full rebuild otherwise — so
//! steady-state refresh cost tracks the write rate, not the
//! population.
//!
//! See `docs/OPERATIONS.md` for the tuning runbook and
//! `docs/ARCHITECTURE.md` for the control-loop diagram.
//!
//! [`PressureStats`]: crate::api::PressureStats
//! [`NeighborhoodStats`]: crate::api::NeighborhoodStats
//! [`ServingStats`]: crate::api::ServingStats

use crate::api::{ServingApi, ServingError};
use crate::sharded::{ShardedConfig, ShardedEngine, DEFAULT_HANDOFF_BATCH, DEFAULT_REFRESH_BATCH};
use sccf_models::InductiveUiModel;

/// Autoscaling and refresh-policy knobs.
///
/// The hysteresis invariant `scale_down_pressure < scale_up_pressure`
/// is what prevents flapping: a pressure signal wandering inside the
/// dead band between the two edges resets both sustain streaks, so
/// oscillating load near one threshold never reshards.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyConfig {
    /// Floor on the shard count; scale-in never goes below it.
    pub min_shards: usize,
    /// Ceiling on the shard count; scale-out never exceeds it.
    pub max_shards: usize,
    /// Pressure at or above which a tick counts toward scale-out.
    /// Pressure is `max(stall_ratio, peak_queue / queue_capacity)`,
    /// so `0.5` means "some queue ran half full (or half the sends
    /// stalled)".
    pub scale_up_pressure: f64,
    /// Pressure at or below which a tick counts toward scale-in.
    /// Must be strictly below `scale_up_pressure`.
    pub scale_down_pressure: f64,
    /// Consecutive above-band ticks required before scale-out fires.
    pub sustain_ticks: u32,
    /// Consecutive below-band ticks required before scale-in fires.
    /// Scale-in should be much more patient than scale-out: shedding
    /// capacity right before the next burst costs a full migration
    /// under load, while holding spare shards costs only memory.
    pub scale_in_sustain_ticks: u32,
    /// Ticks after a scaling decision during which no further scaling
    /// may fire (the migration itself also holds the policy off).
    pub reshard_cooldown: u32,
    /// `events_since_refresh` at or above which a tier refresh fires.
    pub refresh_staleness: u64,
    /// Ticks after a refresh decision before another may fire.
    pub refresh_cooldown: u32,
}

impl Default for PolicyConfig {
    fn default() -> Self {
        Self {
            min_shards: 1,
            max_shards: 8,
            scale_up_pressure: 0.05,
            scale_down_pressure: 0.005,
            sustain_ticks: 3,
            scale_in_sustain_ticks: 12,
            reshard_cooldown: 8,
            refresh_staleness: 10_000,
            refresh_cooldown: 8,
        }
    }
}

impl PolicyConfig {
    /// Check the knob invariants, mirroring [`ShardedConfig::ring`]'s
    /// fail-fast style.
    pub fn validate(&self) -> Result<(), ServingError> {
        if self.min_shards == 0 {
            return Err(ServingError::InvalidConfig(
                "policy min_shards must be >= 1".into(),
            ));
        }
        if self.max_shards < self.min_shards {
            return Err(ServingError::InvalidConfig(format!(
                "policy max_shards ({}) must be >= min_shards ({})",
                self.max_shards, self.min_shards
            )));
        }
        // NaN in either band edge must fail, not slip past a `<`.
        let band_ok = self.scale_down_pressure < self.scale_up_pressure;
        if !band_ok {
            return Err(ServingError::InvalidConfig(format!(
                "hysteresis band is empty: scale_down_pressure ({}) must be \
                 strictly below scale_up_pressure ({})",
                self.scale_down_pressure, self.scale_up_pressure
            )));
        }
        if self.sustain_ticks == 0 || self.scale_in_sustain_ticks == 0 {
            return Err(ServingError::InvalidConfig(
                "policy sustain ticks must be >= 1".into(),
            ));
        }
        if self.refresh_staleness == 0 {
            return Err(ServingError::InvalidConfig(
                "policy refresh_staleness must be >= 1".into(),
            ));
        }
        Ok(())
    }
}

/// One virtual-time sample of the signals the policy reads. Contains
/// no clocks and no engine handles — a seeded generator can fabricate
/// these, which is exactly what the simulation harness does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observation {
    /// Virtual tick index (monotonic, supplied by the driver).
    pub tick: u64,
    /// Current stable shard count.
    pub n_shards: usize,
    /// Backpressure over the last tick window, in `[0, 1]`-ish terms:
    /// the max of the stall ratio (blocked sends / sends) and the
    /// peak queue occupancy (deepest queue depth seen at a send /
    /// queue capacity). `0.0` when nothing was sent.
    pub pressure: f64,
    /// Events applied since the installed tier's export watermark.
    pub staleness: u64,
    /// A frozen tier is currently installed.
    pub tier_present: bool,
    /// A reshard or refresh epoch is mid-flight; the policy must hold
    /// (epochs are mutually exclusive).
    pub epoch_in_flight: bool,
}

/// What the policy wants done this tick. At most one non-`Hold`
/// decision is emitted per tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Nothing to do (or an epoch is in flight / a cooldown is live).
    Hold,
    /// Begin a live reshard to this shard count.
    ScaleTo(usize),
    /// Begin a tier refresh (the engine picks full or delta).
    Refresh,
}

/// The pure policy state machine. Feed it one [`Observation`] per
/// virtual tick; it returns one [`Decision`]. No wall clock, no I/O,
/// no randomness — replaying an observation sequence replays the
/// decision sequence exactly.
#[derive(Debug, Clone)]
pub struct PolicyState {
    cfg: PolicyConfig,
    /// Consecutive ticks at or above the scale-up edge.
    hot_streak: u32,
    /// Consecutive ticks at or below the scale-down edge.
    cold_streak: u32,
    reshard_cooldown_left: u32,
    refresh_cooldown_left: u32,
}

impl PolicyState {
    pub fn new(cfg: PolicyConfig) -> Result<Self, ServingError> {
        cfg.validate()?;
        Ok(Self {
            cfg,
            hot_streak: 0,
            cold_streak: 0,
            reshard_cooldown_left: 0,
            refresh_cooldown_left: 0,
        })
    }

    pub fn config(&self) -> &PolicyConfig {
        &self.cfg
    }

    /// Advance one virtual tick. Cooldowns tick down on every call;
    /// sustain streaks track the pressure signal even while an epoch
    /// is in flight (so sustained load during a migration acts as
    /// soon as the epoch clears and the cooldown allows).
    pub fn decide(&mut self, obs: &Observation) -> Decision {
        self.reshard_cooldown_left = self.reshard_cooldown_left.saturating_sub(1);
        self.refresh_cooldown_left = self.refresh_cooldown_left.saturating_sub(1);

        if obs.pressure >= self.cfg.scale_up_pressure {
            self.hot_streak += 1;
            self.cold_streak = 0;
        } else if obs.pressure <= self.cfg.scale_down_pressure {
            self.cold_streak += 1;
            self.hot_streak = 0;
        } else {
            // Dead band: ambiguous pressure never accumulates toward
            // either action — the anti-flap hysteresis.
            self.hot_streak = 0;
            self.cold_streak = 0;
        }

        if obs.epoch_in_flight {
            return Decision::Hold;
        }

        // Scaling outranks freshness: latency protection first.
        if self.reshard_cooldown_left == 0 {
            if self.hot_streak >= self.cfg.sustain_ticks && obs.n_shards < self.cfg.max_shards {
                self.hot_streak = 0;
                self.cold_streak = 0;
                self.reshard_cooldown_left = self.cfg.reshard_cooldown;
                return Decision::ScaleTo((obs.n_shards * 2).min(self.cfg.max_shards));
            }
            if self.cold_streak >= self.cfg.scale_in_sustain_ticks
                && obs.n_shards > self.cfg.min_shards
            {
                self.hot_streak = 0;
                self.cold_streak = 0;
                self.reshard_cooldown_left = self.cfg.reshard_cooldown;
                return Decision::ScaleTo((obs.n_shards / 2).max(self.cfg.min_shards));
            }
        }

        // Freshness: bootstrap a missing tier, or refresh a stale one.
        // A refresh runs only on a *calm* tick (`cold_streak > 0`,
        // i.e. the current tick's pressure sat at or below the
        // scale-in edge): a refresh epoch would occupy the epoch slot
        // a scale-up needs and add export work to loaded workers —
        // staleness can wait out a burst, latency cannot. In a
        // diurnal workload this lands refreshes in the troughs. A
        // missing tier is the one exception (quality is crippled
        // without it); it still waits for the hot streak to clear.
        if self.hot_streak == 0
            && (self.cold_streak > 0 || !obs.tier_present)
            && self.refresh_cooldown_left == 0
            && (!obs.tier_present || obs.staleness >= self.cfg.refresh_staleness)
        {
            self.refresh_cooldown_left = self.cfg.refresh_cooldown;
            return Decision::Refresh;
        }

        Decision::Hold
    }
}

/// What the driver actually did with one tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActuatorStep {
    /// No epoch in flight and the policy held.
    Idle,
    /// Began a reshard epoch toward this shard count.
    BeginReshard(usize),
    /// Began a refresh epoch (`delta` = dirty-users-only).
    BeginRefresh { delta: bool },
    /// Advanced the in-flight migration by one batch (users moved).
    MigrateStep(usize),
    /// Advanced the in-flight refresh by one batch (users exported).
    RefreshStep(usize),
}

/// One line of the driver's decision log — enough to replay or audit
/// a run tick by tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TickReport {
    pub obs: Observation,
    pub decision: Decision,
    pub step: ActuatorStep,
}

/// The closed-loop actuator: owns the engine, samples stats on each
/// virtual tick, and executes the policy one actuator step at a time.
pub struct ControlDriver<M: InductiveUiModel + 'static> {
    engine: ShardedEngine<M>,
    policy: PolicyState,
    /// Template for reshard targets — router kind and queue capacity
    /// carry over; only `n_shards` is overridden per decision.
    base: ShardedConfig,
    /// Users handed off per migration step (one step per tick).
    handoff_batch: usize,
    /// Users exported per refresh step (one step per tick).
    refresh_batch: usize,
    tick: u64,
    last_sends: u64,
    last_stalls: u64,
    log: Vec<TickReport>,
}

impl<M: InductiveUiModel + 'static> ControlDriver<M> {
    /// Wrap an engine. `base` supplies the non-scaling knobs for every
    /// reshard the policy issues.
    pub fn new(
        engine: ShardedEngine<M>,
        base: ShardedConfig,
        policy: PolicyConfig,
    ) -> Result<Self, ServingError> {
        base.ring()?; // fail fast on a bad template, not mid-reshard
        Ok(Self {
            engine,
            policy: PolicyState::new(policy)?,
            base,
            handoff_batch: DEFAULT_HANDOFF_BATCH,
            refresh_batch: DEFAULT_REFRESH_BATCH,
            tick: 0,
            last_sends: 0,
            last_stalls: 0,
            log: Vec::new(),
        })
    }

    /// Override how much of an epoch one tick advances. Since the
    /// driver takes exactly one actuator step per tick, batch size is
    /// the epoch-duration dial: bigger batches finish a migration in
    /// fewer ticks at the cost of a longer pause per step.
    pub fn with_batches(mut self, handoff: usize, refresh: usize) -> Self {
        self.handoff_batch = handoff.max(1);
        self.refresh_batch = refresh.max(1);
        self
    }

    /// One virtual-time control tick: sample, decide, act (at most one
    /// actuator step). Ingest between ticks via [`Self::engine_mut`].
    pub fn step(&mut self) -> Result<TickReport, ServingError> {
        self.tick += 1;
        let stats = self.engine.serving_stats()?;
        let d_sends = stats.pressure.sends - self.last_sends;
        let d_stalls = stats.pressure.stalls - self.last_stalls;
        self.last_sends = stats.pressure.sends;
        self.last_stalls = stats.pressure.stalls;
        let stall_ratio = if d_sends == 0 {
            0.0
        } else {
            d_stalls as f64 / d_sends as f64
        };
        // peak_queue is already per-window (read-and-clear at the
        // stats sample), unlike the cumulative send/stall counters.
        let occupancy =
            stats.pressure.peak_queue as f64 / stats.pressure.queue_capacity.max(1) as f64;
        let obs = Observation {
            tick: self.tick,
            n_shards: self.engine.n_shards(),
            pressure: stall_ratio.max(occupancy),
            staleness: stats.neighborhood.events_since_refresh,
            tier_present: stats.neighborhood.two_tier,
            epoch_in_flight: self.epoch_in_flight(),
        };
        let decision = self.policy.decide(&obs);
        let step = match decision {
            Decision::Hold => {
                if self.engine.is_migrating() {
                    ActuatorStep::MigrateStep(self.engine.reshard_step()?)
                } else if self.engine.is_refreshing() {
                    ActuatorStep::RefreshStep(self.engine.refresh_step()?)
                } else {
                    ActuatorStep::Idle
                }
            }
            Decision::ScaleTo(m) => {
                let mut cfg = self.base.clone();
                cfg.n_shards = m;
                self.engine.begin_reshard(cfg, self.handoff_batch)?;
                ActuatorStep::BeginReshard(m)
            }
            Decision::Refresh => {
                self.engine.begin_refresh(self.refresh_batch)?;
                // The sampled `delta_ready` is the kind the engine just
                // picked: nothing touched the tier since the sample.
                ActuatorStep::BeginRefresh {
                    delta: stats.neighborhood.delta_ready,
                }
            }
        };
        let report = TickReport {
            obs,
            decision,
            step,
        };
        self.log.push(report);
        Ok(report)
    }

    /// Run control ticks until no epoch is in flight and the last tick
    /// was fully idle, or `max_ticks` elapse. Returns ticks consumed.
    /// Convenient for "drain the control plane" moments in tests and
    /// benches; steady state with live traffic never goes idle.
    pub fn settle(&mut self, max_ticks: usize) -> Result<usize, ServingError> {
        for i in 0..max_ticks {
            let report = self.step()?;
            if report.step == ActuatorStep::Idle && !self.epoch_in_flight() {
                return Ok(i + 1);
            }
        }
        Ok(max_ticks)
    }

    pub fn epoch_in_flight(&self) -> bool {
        self.engine.is_migrating() || self.engine.is_refreshing()
    }

    pub fn engine(&self) -> &ShardedEngine<M> {
        &self.engine
    }

    pub fn engine_mut(&mut self) -> &mut ShardedEngine<M> {
        &mut self.engine
    }

    /// Hand the engine back (e.g. to shut it down).
    pub fn into_engine(self) -> ShardedEngine<M> {
        self.engine
    }

    /// Full tick-by-tick decision log since construction.
    pub fn log(&self) -> &[TickReport] {
        &self.log
    }

    pub fn policy(&self) -> &PolicyState {
        &self.policy
    }

    pub fn ticks(&self) -> u64 {
        self.tick
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(tick: u64, n_shards: usize, pressure: f64) -> Observation {
        Observation {
            tick,
            n_shards,
            pressure,
            staleness: 0,
            tier_present: true,
            epoch_in_flight: false,
        }
    }

    fn policy() -> PolicyState {
        PolicyState::new(PolicyConfig {
            min_shards: 1,
            max_shards: 8,
            scale_up_pressure: 0.10,
            scale_down_pressure: 0.01,
            sustain_ticks: 3,
            scale_in_sustain_ticks: 3,
            reshard_cooldown: 5,
            refresh_staleness: 100,
            refresh_cooldown: 5,
        })
        .unwrap()
    }

    #[test]
    fn empty_hysteresis_band_is_rejected() {
        let cfg = PolicyConfig {
            scale_up_pressure: 0.01,
            scale_down_pressure: 0.01,
            ..PolicyConfig::default()
        };
        assert!(PolicyState::new(cfg).is_err());
    }

    #[test]
    fn sustained_pressure_scales_up_once_then_cools_down() {
        let mut p = policy();
        let mut fired = Vec::new();
        for t in 0..5 {
            let d = p.decide(&obs(t, 2, 0.5));
            if d != Decision::Hold {
                fired.push((t, d));
            }
        }
        // Fires exactly at the sustain threshold (3rd hot tick), then
        // the cooldown holds it off for the remaining ticks.
        assert_eq!(fired, vec![(2, Decision::ScaleTo(4))]);
    }

    #[test]
    fn dead_band_never_accumulates() {
        let mut p = policy();
        for t in 0..100 {
            // Oscillate around the scale-up edge: one tick hot, one
            // tick inside the dead band. The streak can never reach 3.
            let ratio = if t % 2 == 0 { 0.5 } else { 0.05 };
            assert_eq!(p.decide(&obs(t, 2, ratio)), Decision::Hold);
        }
    }

    #[test]
    fn scale_down_respects_floor() {
        let mut p = policy();
        for t in 0..50 {
            assert_eq!(p.decide(&obs(t, 1, 0.0)), Decision::Hold);
        }
    }

    #[test]
    fn epoch_in_flight_forces_hold() {
        let mut p = policy();
        for t in 0..10 {
            let mut o = obs(t, 2, 0.9);
            o.epoch_in_flight = true;
            assert_eq!(p.decide(&o), Decision::Hold);
        }
    }

    #[test]
    fn staleness_triggers_a_refresh() {
        let mut p = policy();
        let mut o = obs(0, 2, 0.0);
        o.staleness = 500;
        // cold ticks also accumulate toward scale-in; keep above floor
        // off the table by using n_shards = min_shards.
        o.n_shards = 1;
        assert_eq!(p.decide(&o), Decision::Refresh);
    }

    #[test]
    fn missing_tier_bootstraps_full_refresh() {
        let mut p = policy();
        let mut o = obs(0, 1, 0.0);
        o.tier_present = false;
        assert_eq!(p.decide(&o), Decision::Refresh);
        // Cooldown spaces the bootstrap retries.
        for t in 1..5 {
            let mut o = obs(t, 1, 0.0);
            o.tier_present = false;
            assert_eq!(p.decide(&o), Decision::Hold);
        }
    }

    #[test]
    fn identical_observations_replay_identical_decisions() {
        let seq: Vec<Observation> = (0..200)
            .map(|t| {
                let mut o = obs(t, 2, ((t * 7919) % 100) as f64 / 100.0);
                o.staleness = (t * 37) % 400;
                o
            })
            .collect();
        let mut a = policy();
        let mut b = policy();
        for o in &seq {
            assert_eq!(a.decide(o), b.decide(o));
        }
    }
}
