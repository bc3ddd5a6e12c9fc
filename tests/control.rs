//! Closed-loop control plane acceptance: the autoscaling + refresh
//! policy, proven by a deterministic policy-simulation harness.
//!
//! [`PolicyState`] is a pure function of its observation sequence —
//! no wall clock, no I/O, no randomness — so every property here is
//! driven by `Observation` streams fabricated from a seeded
//! [`Lcg`]. A failing seed is printed in the panic message and
//! replays the identical decision trace locally (that replayability
//! is itself the last property in the pure section). The engine-level
//! tests then pin the actuator side: a delta tier refresh must be
//! **bit-identical** to a full rebuild at the same watermark, and a
//! real [`ControlDriver`] must actually scale a fleet under a
//! sustained burst. Exact-replay claims stop at the policy layer on
//! purpose: live pressure readings depend on worker scheduling, which
//! is why the policy consumes value-typed observations a simulation
//! can fabricate.

use sccf::serving::control::{Decision, Observation, PolicyConfig, PolicyState};
use sccf::serving::{
    ActuatorStep, ControlDriver, RecQuery, RouterKind, ServingApi, ShardedConfig, ShardedEngine,
};
use sccf_bench::chaos::{ChaosWorld, Lcg};
use sccf_bench::workload::{FlashSale, WorkloadConfig, WorkloadGen};

const SEEDS: [u64; 8] = [1, 2, 3, 5, 8, 13, 21, 42];

fn cfg() -> PolicyConfig {
    PolicyConfig {
        min_shards: 1,
        max_shards: 8,
        scale_up_pressure: 0.10,
        scale_down_pressure: 0.01,
        sustain_ticks: 3,
        scale_in_sustain_ticks: 6,
        reshard_cooldown: 8,
        refresh_staleness: 1_000,
        refresh_cooldown: 10,
    }
}

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

// ------------------------------------------------------ pure policy

/// Hysteresis: load that oscillates around the scale-up edge — hot
/// runs always shorter than `sustain_ticks`, broken by dead-band
/// ticks — must never reshard, in either direction, ever.
#[test]
fn oscillating_load_near_threshold_never_reshards() {
    let c = cfg();
    for &seed in &SEEDS {
        let mut r = Lcg::new(seed);
        let mut p = PolicyState::new(c).unwrap();
        let mut tick = 0u64;
        while tick < 500 {
            // 1..sustain_ticks hot ticks: never enough to fire.
            let hot_run = 1 + r.below(c.sustain_ticks as u64 - 1);
            for _ in 0..hot_run {
                let pressure = c.scale_up_pressure + (r.below(90) as f64) / 100.0;
                let d = p.decide(&obs(tick, 2, pressure));
                assert!(
                    !matches!(d, Decision::ScaleTo(_)),
                    "seed {seed} tick {tick}: resharded ({d:?}) inside a short hot run"
                );
                tick += 1;
            }
            // 1..=2 dead-band ticks: reset both streaks without ever
            // counting as calm (so scale-in can't accumulate either).
            for _ in 0..=r.below(2) {
                let d = p.decide(&obs(tick, 2, 0.05));
                assert!(
                    !matches!(d, Decision::ScaleTo(_)),
                    "seed {seed} tick {tick}: resharded ({d:?}) in the dead band"
                );
                tick += 1;
            }
        }
    }
}

/// Sustained backpressure with the actuator feedback closed: shard
/// count doubles 1→2→4→8, exactly one scale-up per level, consecutive
/// scale-ups spaced by the cooldown, and nothing further at the cap.
#[test]
fn sustained_backpressure_scales_up_exactly_once_per_level() {
    let c = cfg();
    let mut p = PolicyState::new(c).unwrap();
    let mut n_shards = 1usize;
    let mut ups: Vec<(u64, usize)> = Vec::new();
    for tick in 0..200u64 {
        match p.decide(&obs(tick, n_shards, 0.9)) {
            Decision::ScaleTo(m) => {
                assert_eq!(m, n_shards * 2, "tick {tick}: not a doubling step");
                ups.push((tick, m));
                n_shards = m; // the actuator applies the decision
            }
            Decision::Hold => {}
            other => panic!("tick {tick}: unexpected {other:?} under pure pressure"),
        }
    }
    let targets: Vec<usize> = ups.iter().map(|&(_, m)| m).collect();
    assert_eq!(targets, vec![2, 4, 8], "one scale-up per level, then cap");
    for w in ups.windows(2) {
        assert!(
            w[1].0 - w[0].0 >= c.reshard_cooldown as u64,
            "scale-ups {w:?} closer than the cooldown"
        );
    }
}

/// Freshness: staleness crossing the threshold on a calm fleet fires
/// exactly one refresh (the engine picks full or delta), and the
/// refresh cooldown spaces the next one.
#[test]
fn staleness_threshold_fires_refresh_once() {
    let c = cfg();
    let mut p = PolicyState::new(c).unwrap();
    let mut fired: Vec<(u64, Decision)> = Vec::new();
    for tick in 0..40u64 {
        let mut o = obs(tick, 1, 0.0);
        o.staleness = tick * 100; // crosses 1_000 at tick 10
        let d = p.decide(&o);
        if d != Decision::Hold {
            fired.push((tick, d));
        }
    }
    let want = Decision::Refresh;
    assert!(
        !fired.is_empty() && fired[0] == (10, want),
        "first firing was {fired:?}"
    );
    for w in fired.windows(2) {
        assert_eq!(w[1].1, want);
        assert!(
            w[1].0 - w[0].0 >= c.refresh_cooldown as u64,
            "refreshes {w:?} closer than the cooldown"
        );
    }
}

/// Fuzz both cooldowns at once: seeded random pressure, staleness and
/// in-flight flags, actuator feedback closed. Invariants: an
/// in-flight epoch always yields `Hold`, consecutive scaling
/// decisions are spaced by `reshard_cooldown`, consecutive refreshes
/// by `refresh_cooldown`, and the shard count never leaves
/// `[min_shards, max_shards]`.
#[test]
fn cooldowns_and_bounds_hold_under_random_load() {
    let c = cfg();
    for &seed in &SEEDS {
        let mut r = Lcg::new(seed);
        let mut p = PolicyState::new(c).unwrap();
        let mut n_shards = 1usize;
        let mut last_reshard: Option<u64> = None;
        let mut last_refresh: Option<u64> = None;
        for tick in 0..1_000u64 {
            let o = Observation {
                tick,
                n_shards,
                pressure: (r.below(1_000) as f64) / 1_000.0,
                staleness: r.below(3_000),
                tier_present: r.chance(90),
                epoch_in_flight: r.chance(20),
            };
            let d = p.decide(&o);
            if o.epoch_in_flight {
                assert_eq!(
                    d,
                    Decision::Hold,
                    "seed {seed} tick {tick}: acted mid-epoch"
                );
                continue;
            }
            match d {
                Decision::ScaleTo(m) => {
                    if let Some(t0) = last_reshard {
                        assert!(
                            tick - t0 >= c.reshard_cooldown as u64,
                            "seed {seed}: reshards at {t0} and {tick} inside cooldown"
                        );
                    }
                    assert!(
                        (c.min_shards..=c.max_shards).contains(&m),
                        "seed {seed} tick {tick}: target {m} out of bounds"
                    );
                    last_reshard = Some(tick);
                    n_shards = m;
                }
                Decision::Refresh => {
                    if let Some(t0) = last_refresh {
                        assert!(
                            tick - t0 >= c.refresh_cooldown as u64,
                            "seed {seed}: refreshes at {t0} and {tick} inside cooldown"
                        );
                    }
                    last_refresh = Some(tick);
                }
                Decision::Hold => {}
            }
        }
    }
}

/// The replay contract the whole harness rests on: the same seed
/// produces the same observation stream produces the same decision
/// trace, bit for bit — including when one policy is cloned mid-run
/// and both halves continue independently.
#[test]
fn failing_seeds_replay_identical_decision_traces() {
    let c = cfg();
    for &seed in &SEEDS {
        let stream = |s: u64| {
            let mut r = Lcg::new(s);
            (0..600u64).map(move |tick| Observation {
                tick,
                n_shards: 1 + r.below(8) as usize,
                pressure: (r.below(1_000) as f64) / 1_000.0,
                staleness: r.below(3_000),
                tier_present: r.chance(90),
                epoch_in_flight: r.chance(20),
            })
        };
        let mut a = PolicyState::new(c).unwrap();
        let trace_a: Vec<Decision> = stream(seed).map(|o| a.decide(&o)).collect();
        let mut b = PolicyState::new(c).unwrap();
        let mut forked: Option<PolicyState> = None;
        let mut trace_b = Vec::new();
        let mut trace_f = Vec::new();
        for (i, o) in stream(seed).enumerate() {
            if i == 300 {
                forked = Some(b.clone());
            }
            trace_b.push(b.decide(&o));
            if let Some(f) = forked.as_mut() {
                trace_f.push(f.decide(&o));
            }
        }
        assert_eq!(trace_a, trace_b, "seed {seed}: replay diverged");
        assert_eq!(
            &trace_a[300..],
            &trace_f[..],
            "seed {seed}: mid-run clone diverged from the original"
        );
    }
}

// --------------------------------------------------- engine actuator

fn fleet(world: &ChaosWorld, n_shards: usize) -> ShardedEngine<sccf::models::Fism> {
    let cfg = ShardedConfig {
        n_shards,
        queue_capacity: 256,
        router: RouterKind::Consistent { vnodes: 8 },
    };
    ShardedEngine::try_new(world.fresh_sccf(), world.histories.clone(), cfg).expect("fleet builds")
}

fn event_stream(world: &ChaosWorld, seed: u64, len: usize) -> Vec<(u32, u32)> {
    let mut r = Lcg::new(seed);
    (0..len)
        .map(|_| {
            (
                r.below(world.n_users as u64) as u32,
                r.below(world.n_items as u64) as u32,
            )
        })
        .collect()
}

fn all_slates(
    e: &mut ShardedEngine<sccf::models::Fism>,
    n_users: usize,
) -> Vec<Vec<sccf::util::topk::Scored>> {
    let q = RecQuery::top(10);
    (0..n_users as u32)
        .map(|u| e.try_recommend(u, &q).expect("recommend").items)
        .collect()
}

fn assert_slates_bit_identical(
    a: &[Vec<sccf::util::topk::Scored>],
    b: &[Vec<sccf::util::topk::Scored>],
    ctx: &str,
) {
    assert_eq!(a.len(), b.len());
    for (u, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.len(), y.len(), "{ctx}: user {u} slate length");
        for (i, j) in x.iter().zip(y) {
            assert_eq!(i.id, j.id, "{ctx}: user {u} item id");
            assert_eq!(
                i.score.to_bits(),
                j.score.to_bits(),
                "{ctx}: user {u} score bits differ on item {}",
                i.id
            );
        }
    }
}

/// The pinned equivalence the delta path must honor forever: at the
/// same event watermark, a delta refresh (re-export only users dirty
/// since the last epoch) installs a tier whose **encoded snapshot
/// bytes** equal a from-scratch full rebuild's, and every
/// recommendation slate matches to the float bit. An empty delta —
/// no user dirty — exports zero users and leaves the bytes unchanged.
#[test]
fn delta_refresh_is_bit_identical_to_full_rebuild() {
    let world = ChaosWorld::build(42);
    let mut full = fleet(&world, 4);
    let mut delta = fleet(&world, 4);

    // Same prefix into both, tier built by each fleet's own pipeline.
    let prefix = event_stream(&world, 7, 300);
    full.ingest_batch(&prefix).unwrap();
    delta.ingest_batch(&prefix).unwrap();
    full.flush().unwrap();
    delta.flush().unwrap();
    let r0 = full.refresh_global_tier().unwrap();
    let r1 = delta.refresh_global_tier().unwrap();
    assert!(!r0.delta && !r1.delta);
    assert_eq!(
        full.global_tier().unwrap().encode(),
        delta.global_tier().unwrap().encode(),
        "identical fleets built different base tiers"
    );

    // Same delta stream; then full rebuild vs dirty-only delta. Clearing
    // the tier is how an operator forces the full rebuild.
    let tail = event_stream(&world, 11, 120);
    let touched: std::collections::BTreeSet<u32> = tail.iter().map(|&(u, _)| u).collect();
    full.ingest_batch(&tail).unwrap();
    delta.ingest_batch(&tail).unwrap();
    full.flush().unwrap();
    delta.flush().unwrap();
    full.clear_global_tier().unwrap();
    let rf = full.refresh_global_tier().unwrap();
    let rd = delta.refresh_global_tier().unwrap();
    assert!(!rf.delta && rd.delta);
    assert_eq!(
        rf.users, world.n_users as u64,
        "full exports the population"
    );
    assert_eq!(
        rd.users,
        touched.len() as u64,
        "delta exports exactly the dirty users"
    );
    assert_eq!(
        full.global_tier().unwrap().encode(),
        delta.global_tier().unwrap().encode(),
        "delta tier bytes diverge from the full rebuild"
    );
    let sf = all_slates(&mut full, world.n_users);
    let sd = all_slates(&mut delta, world.n_users);
    assert_slates_bit_identical(&sf, &sd, "post-delta");

    // Empty delta: nothing dirty, nothing exported. The installed
    // snapshot differs from the previous one only in its epoch stamp
    // (bytes 8..16 of the encoding) — documented on
    // `begin_refresh`; a full refresh at the same watermark bumps the
    // epoch identically.
    let before = delta.global_tier().unwrap().encode();
    let re = delta.refresh_global_tier().unwrap();
    assert!(re.delta);
    assert_eq!(re.users, 0, "empty delta exported users");
    let after = delta.global_tier().unwrap().encode();
    assert_eq!(after.len(), before.len());
    assert_eq!(&after[..8], &before[..8], "magic changed");
    assert_ne!(&after[8..16], &before[8..16], "epoch stamp did not advance");
    assert_eq!(
        &after[16..],
        &before[16..],
        "empty delta rewrote tier content beyond the epoch stamp"
    );

    full.shutdown();
    delta.shutdown();
}

/// The engine picks the refresh kind: it splices only when its own
/// refresh built the installed tier, and exports everyone otherwise —
/// on a fresh fleet, after an external install and after a clear.
#[test]
fn the_engine_picks_the_refresh_kind() {
    let world = ChaosWorld::build(42);
    let mut fleet = fleet(&world, 3);
    let population = world.n_users as u64;
    let delta_ready = |f: &mut ShardedEngine<sccf::models::Fism>| {
        f.serving_stats().unwrap().neighborhood.delta_ready
    };
    assert!(!delta_ready(&mut fleet), "no tier: nothing to splice into");

    let first = fleet.refresh_global_tier().unwrap();
    assert!(!first.delta, "a fresh fleet builds its first tier");
    assert_eq!(first.users, population);
    assert!(delta_ready(&mut fleet));

    let events = event_stream(&world, 5, 40);
    let dirty: std::collections::BTreeSet<u32> = events.iter().map(|&(u, _)| u).collect();
    fleet.ingest_batch(&events).unwrap();
    fleet.flush().unwrap();
    let spliced = fleet.refresh_global_tier().unwrap();
    assert!(spliced.delta, "its own tier is spliced");
    assert_eq!(spliced.users, dirty.len() as u64);

    let artifact = fleet.global_tier().unwrap().encode();
    let tier = sccf::core::GlobalNeighborSnapshot::decode(&artifact).unwrap();
    fleet.install_global_tier(tier).unwrap();
    assert!(
        !delta_ready(&mut fleet),
        "an installed artifact is not the fleet's own"
    );
    let after_install = fleet.refresh_global_tier().unwrap();
    assert!(!after_install.delta, "an installed artifact is rebuilt");
    assert_eq!(after_install.users, population);

    fleet.clear_global_tier().unwrap();
    assert!(!delta_ready(&mut fleet));
    let after_clear = fleet.refresh_global_tier().unwrap();
    assert!(!after_clear.delta, "a cleared fleet builds fresh");
    assert_eq!(after_clear.users, population);
    fleet.shutdown();
}

/// End-to-end actuator smoke: a real `ControlDriver` on a real fleet,
/// fed the seeded flash-sale workload, must (a) scale up at least
/// once, (b) hold while epochs are in flight, (c) drain to idle on
/// `settle`, and (d) keep the shard count inside the policy bounds.
#[test]
fn control_driver_scales_a_real_fleet_under_burst() {
    let world = ChaosWorld::build(42);
    let base = ShardedConfig {
        n_shards: 1,
        queue_capacity: 64,
        router: RouterKind::Consistent { vnodes: 8 },
    };
    let mut engine =
        ShardedEngine::try_new(world.fresh_sccf(), world.histories.clone(), base.clone())
            .expect("fleet builds");
    engine.refresh_global_tier().expect("initial tier");
    let policy = PolicyConfig {
        min_shards: 1,
        max_shards: 4,
        scale_up_pressure: 0.5,
        scale_down_pressure: 0.05,
        sustain_ticks: 2,
        scale_in_sustain_ticks: 64,
        reshard_cooldown: 2,
        refresh_staleness: 100_000, // freshness out of the way
        refresh_cooldown: 4,
    };
    let mut driver = ControlDriver::new(engine, base, policy)
        .expect("valid policy")
        .with_batches(world.n_users, world.n_users);
    let wl = WorkloadConfig {
        seed: 42,
        n_users: world.n_users as u32,
        n_items: world.n_items as u32,
        ticks: 48,
        base_events_per_tick: 48,
        recommends_per_tick: 4,
        diurnal_period: 24,
        diurnal_amplitude: 0.4,
        user_skew: 2.0,
        flash: Some(FlashSale {
            start: 12,
            len: 24,
            multiplier: 10.0,
            hot_item: 0,
            hot_percent: 40,
        }),
    };
    let q = RecQuery::top(5);
    let mut gen = WorkloadGen::new(wl);
    while let Some(tick) = gen.next_tick() {
        driver.engine_mut().ingest_batch(&tick.events).unwrap();
        for &u in &tick.recommends {
            driver.engine_mut().try_recommend(u, &q).unwrap();
        }
        driver.step().expect("control tick");
    }
    driver.settle(64).expect("control plane drains");
    assert!(!driver.epoch_in_flight(), "settle left an epoch in flight");

    let mut scale_ups = 0;
    for r in driver.log() {
        if r.obs.epoch_in_flight {
            assert_eq!(
                r.decision,
                Decision::Hold,
                "tick {}: decided {:?} mid-epoch",
                r.obs.tick,
                r.decision
            );
        }
        if let ActuatorStep::BeginReshard(m) = r.step {
            assert!((1..=4).contains(&m), "reshard target {m} out of bounds");
            scale_ups += 1;
        }
    }
    assert!(
        scale_ups >= 1,
        "a x10 flash burst on a 64-deep queue never scaled the fleet"
    );
    assert!(driver.engine().n_shards() > 1, "burst ended at one shard");
    driver.into_engine().shutdown();
}
