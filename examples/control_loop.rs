//! Closed-loop control plane demo: a `ControlDriver` owns a serving
//! fleet, watches its queue pressure and tier staleness on virtual
//! ticks, and drives every operational decision itself — scale out on
//! sustained backpressure, scale in when the load drains away, keep
//! the frozen tier fresh with *delta* refreshes that re-export only
//! the users written since the last epoch.
//!
//! The traffic is a seeded `WorkloadGen` trace: a diurnal curve with a
//! flash-sale burst in the afternoon. Watch the decision log: the
//! policy rides out the quiet morning at one shard, doubles its way up
//! when the flash hits (hysteresis bands keep it from flapping on the
//! edge), parks tier refreshes in the calm troughs, and never overlaps
//! two epochs.
//!
//! ```sh
//! cargo run --release --example control_loop
//! ```

use sccf::core::{FrozenTierMode, IntegratorConfig, Sccf, SccfConfig, UserBasedConfig};
use sccf::data::catalog::{ml1m_sim, Scale};
use sccf::data::synthetic::generate;
use sccf::data::LeaveOneOut;
use sccf::models::{Fism, FismConfig, TrainConfig};
use sccf::serving::control::{ActuatorStep, Decision, PolicyConfig};
use sccf::serving::{ControlDriver, RouterKind, ServingApi, ShardedConfig, ShardedEngine};
use sccf_bench::workload::{FlashSale, WorkloadConfig, WorkloadGen};

fn main() {
    // --- a small world and one deterministic framework build ------------
    let mut cfg = ml1m_sim(Scale::Quick);
    cfg.n_users = 400;
    cfg.n_items = 200;
    let gen = generate(&cfg, 23);
    let split = LeaveOneOut::split(&gen.dataset);
    println!("training FISM on {} users ...", split.n_users());
    let fism = Fism::train(
        &split,
        &FismConfig {
            train: TrainConfig {
                dim: 16,
                epochs: 3,
                seed: 7,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let sccf = Sccf::build(
        fism,
        &split,
        SccfConfig {
            user_based: UserBasedConfig {
                beta: 20,
                recent_window: 10,
            },
            candidate_n: 30,
            integrator: IntegratorConfig {
                epochs: 3,
                seed: 7,
                ..Default::default()
            },
            threads: 1,
            ui_ann: None,
            frozen_tier: FrozenTierMode::Flat,
        },
    );
    let histories: Vec<Vec<u32>> = (0..split.n_users() as u32)
        .map(|u| split.train_plus_val(u))
        .collect();

    // --- fleet + policy --------------------------------------------------
    let base = ShardedConfig {
        n_shards: 1,
        queue_capacity: 256,
        router: RouterKind::Consistent { vnodes: 16 },
    };
    let mut engine = ShardedEngine::try_new(sccf, histories, base.clone()).expect("fleet builds");
    engine.refresh_global_tier().expect("initial tier build");
    let policy = PolicyConfig {
        min_shards: 1,
        max_shards: 8,
        scale_up_pressure: 0.5, // some queue ran half full
        scale_down_pressure: 0.05,
        sustain_ticks: 2,
        scale_in_sustain_ticks: 16,
        reshard_cooldown: 3,
        refresh_staleness: 8_000,
        refresh_cooldown: 6,
    };
    let mut driver = ControlDriver::new(engine, base, policy)
        .expect("valid policy")
        .with_batches(200, 200);

    // --- the day: diurnal traffic with an afternoon flash sale -----------
    let trace = WorkloadConfig {
        seed: 42,
        n_users: 400,
        n_items: 200,
        ticks: 96,
        base_events_per_tick: 128,
        recommends_per_tick: 8,
        diurnal_period: 48,
        diurnal_amplitude: 0.6,
        user_skew: 2.0,
        flash: Some(FlashSale {
            start: 54,
            len: 24,
            multiplier: 12.0,
            hot_item: 0,
            hot_percent: 40,
        }),
    };
    println!(
        "replaying {} ticks (flash x{} at t={}) under the control loop ...\n",
        trace.ticks, 12, 54
    );
    let query = sccf::serving::RecQuery::top(10);
    let mut gen = WorkloadGen::new(trace);
    while let Some(tick) = gen.next_tick() {
        driver
            .engine_mut()
            .ingest_batch(&tick.events)
            .expect("ingest");
        for &u in &tick.recommends {
            driver
                .engine_mut()
                .try_recommend(u, &query)
                .expect("recommend");
        }
        let r = driver.step().expect("control tick");
        // Print only the ticks where something happened.
        match (r.decision, r.step) {
            (Decision::Hold, ActuatorStep::Idle) => {}
            (d, s) => println!(
                "t={:>3}  shards={}  pressure={:.2}  stale={:>6}  {:?} -> {:?}",
                r.obs.tick, r.obs.n_shards, r.obs.pressure, r.obs.staleness, d, s
            ),
        }
    }
    let settle_ticks = driver.settle(64).expect("drain");
    println!("\nsettled in {settle_ticks} extra ticks");

    // --- the day in numbers ----------------------------------------------
    let (mut ups, mut downs, mut fulls, mut deltas) = (0, 0, 0, 0);
    let mut shards = 1usize;
    for r in driver.log() {
        match r.step {
            ActuatorStep::BeginReshard(m) => {
                if m > shards {
                    ups += 1;
                } else {
                    downs += 1;
                }
                shards = m;
            }
            ActuatorStep::BeginRefresh { delta: false } => fulls += 1,
            ActuatorStep::BeginRefresh { delta: true } => deltas += 1,
            _ => {}
        }
    }
    let stats = driver.engine_mut().serving_stats().expect("stats");
    println!(
        "final shards {}   scale-ups {}   scale-downs {}   refreshes {} full / {} delta",
        driver.engine().n_shards(),
        ups,
        downs,
        fulls,
        deltas
    );
    println!(
        "tier staleness at close: {} events (an open-loop fleet would be sitting on the whole day)",
        stats.neighborhood.events_since_refresh
    );
    driver.into_engine().shutdown();
    println!("done.");
}
