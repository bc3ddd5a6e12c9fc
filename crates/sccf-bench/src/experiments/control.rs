//! `bench-control`: the closed-loop control plane against doing nothing.

use sccf_data::catalog::Scale;
use sccf_models::Fism;
use sccf_net::WorldSpec;
use sccf_serving::control::{ActuatorStep, ControlDriver, PolicyConfig};
use sccf_serving::{RecQuery, RouterKind, ServingApi, ShardedConfig, ShardedEngine};
use sccf_util::table::{f2, f4};
use sccf_util::timer::Stopwatch;
use sccf_util::{Json, Table, TimingStats};

use super::BenchArtifact;
use crate::harness::HarnessConfig;
use crate::workload::{FlashSale, TickTrace, WorkloadConfig, WorkloadGen};

/// One loop's latency probes (the per-tick recommend batch): wall-clock
/// milliseconds and **queue wait** — messages ahead of the probe in its
/// shard's FIFO at send time — each over the whole trace, the flash
/// window, and the window's converged second half.
#[derive(Default)]
struct Probes {
    all: TimingStats,
    flash: TimingStats,
    tail: TimingStats,
    wait_all: TimingStats,
    wait_flash: TimingStats,
    wait_tail: TimingStats,
}

impl Probes {
    fn record(&mut self, in_flash: bool, in_tail: bool, ms: f64, wait: f64) {
        let windows = [
            (true, &mut self.all, &mut self.wait_all),
            (in_flash, &mut self.flash, &mut self.wait_flash),
            (in_tail, &mut self.tail, &mut self.wait_tail),
        ];
        for (inside, wall, queue) in windows {
            if inside {
                wall.record_ms(ms);
                queue.record_ms(wait);
            }
        }
    }

    /// One side's JSON object: `head`, the six p99s, the router stall
    /// ratio, then `rest`.
    fn json(
        &self,
        head: (&'static str, Json),
        stall_ratio: f64,
        rest: Vec<(&'static str, Json)>,
    ) -> Json {
        let mut fields = vec![
            head,
            ("p99_ms", Json::num(self.all.p99_ms(), 4)),
            ("flash_p99_ms", Json::num(self.flash.p99_ms(), 4)),
            ("flash_tail_p99_ms", Json::num(self.tail.p99_ms(), 4)),
            ("wait_p99", Json::num(self.wait_all.p99_ms(), 1)),
            ("flash_wait_p99", Json::num(self.wait_flash.p99_ms(), 1)),
            ("flash_tail_wait_p99", Json::num(self.wait_tail.p99_ms(), 1)),
            ("stall_ratio", Json::num(stall_ratio, 5)),
        ];
        fields.extend(rest);
        Json::obj(fields)
    }
}

/// The same seeded diurnal + flash-sale trace (see
/// [`crate::workload::WorkloadGen`]) replayed into (a) a static
/// 1-shard fleet and (b) the same fleet under
/// [`sccf_serving::ControlDriver`], which autoscales on queue
/// pressure and keeps the frozen tier fresh with delta refreshes.
/// Both loops sample stats once per tick (the operator's dashboard
/// poll), so the measurement barrier is symmetric; the latency probe
/// is the per-tick recommend batch.
///
/// The headline metric is **probe queue wait** — the number of
/// messages ahead of each probe in its shard's FIFO at send time
/// (`ShardedEngine::queue_depth_for`). Requests are answered FIFO, so
/// on a parallel host queueing delay is proportional to this number;
/// wall-clock p99 is also reported, but on a single-core CI host it
/// is scheduler-bound (eight worker threads cannot run at once) and
/// cannot show a scaling win, while queue wait shows it
/// deterministically: the open loop pins at queue capacity, the
/// closed loop divides the backlog by the shard count.
///
/// The second half isolates the delta-refresh claim: after a full
/// refresh (forced by clearing the tier first) cleans every user, touch
/// k users and measure what `refresh_global_tier` exports — `k`, not
/// the population.
pub fn bench_control(h: &HarnessConfig) -> BenchArtifact {
    let (n_users, n_items, ticks, base_events) = match h.scale {
        Scale::Quick => (400usize, 160usize, 96usize, 128usize),
        Scale::Full => (2_000, 600, 192, 512),
    };
    let wl = WorkloadConfig {
        seed: h.seed,
        n_users: n_users as u32,
        n_items: n_items as u32,
        ticks,
        base_events_per_tick: base_events,
        recommends_per_tick: 16,
        diurnal_period: ticks / 2,
        diurnal_amplitude: 0.6,
        user_skew: 2.0,
        flash: Some(FlashSale {
            start: ticks * 9 / 16,
            len: ticks / 4,
            multiplier: 12.0,
            hot_item: 0,
            hot_percent: 40,
        }),
    };
    let spec = WorldSpec {
        n_users,
        n_items,
        seed: h.seed,
        ..WorldSpec::default()
    };
    // Train once; both loops rehydrate the same floats.
    let model_bytes = spec.train_model();
    let base_cfg = ShardedConfig {
        n_shards: 1,
        queue_capacity: 1024,
        router: RouterKind::Consistent { vnodes: 16 },
    };
    let policy = PolicyConfig {
        min_shards: 1,
        max_shards: 8,
        // Occupancy terms: scale out once some queue runs half full,
        // scale in only when queues sit nearly empty for a long time.
        scale_up_pressure: 0.5,
        scale_down_pressure: 0.05,
        sustain_ticks: 2,
        scale_in_sustain_ticks: 24,
        reshard_cooldown: 3,
        refresh_staleness: (base_events * ticks / 4) as u64,
        refresh_cooldown: 6,
    };
    let flash = wl.flash.expect("trace has a flash window");
    let in_flash = |t: usize| t >= flash.start && t < flash.start + flash.len;
    // The converged tail: the policy's scaling transient lives in the
    // first half of the window; the second half shows what the scaled
    // fleet actually delivers while the static fleet keeps melting.
    let in_flash_tail = |t: usize| t >= flash.start + flash.len / 2 && t < flash.start + flash.len;
    let query = RecQuery::top(10);
    // One tick of either loop: ingest the tick's events, then probe.
    let drive = |engine: &mut ShardedEngine<Fism>, tick: &TickTrace, probes: &mut Probes| {
        engine.ingest_batch(&tick.events).expect("tick ingest");
        for &u in &tick.recommends {
            // Read before sending: the core-count-independent latency
            // proxy (see `ShardedEngine::queue_depth_for`).
            let wait = engine.queue_depth_for(u) as f64;
            let sw = Stopwatch::start();
            engine.try_recommend(u, &query).expect("probe recommend");
            let ms = sw.elapsed_ms();
            probes.record(in_flash(tick.tick), in_flash_tail(tick.tick), ms, wait);
        }
    };

    // --- open loop: static fleet, operator polls stats, nothing acts --
    let world = spec.build(Some(&model_bytes)).expect("world builds");
    let mut open = ShardedEngine::try_new(world.sccf, world.histories, base_cfg.clone())
        .expect("open-loop engine");
    // Both fleets start from the same freshly-built tier (the operator
    // sets it up once). The open loop never refreshes again, so every
    // recommend pays the same two-tier query path but its tier ages;
    // the closed loop's policy keeps it fresh with deltas.
    open.refresh_global_tier().expect("initial tier");
    let mut open_probes = Probes::default();
    let mut gen = WorkloadGen::new(wl);
    while let Some(tick) = gen.next_tick() {
        drive(&mut open, &tick, &mut open_probes);
        let _ = open.serving_stats().expect("open stats");
    }
    let open_stats = open.serving_stats().expect("open stats");
    let open_stall_ratio =
        open_stats.pressure.stalls as f64 / open_stats.pressure.sends.max(1) as f64;
    // Events applied since the open loop's only tier build — how stale
    // a never-refreshed tier ends up.
    let open_staleness = open_stats.neighborhood.events_since_refresh;
    open.shutdown();

    // --- closed loop: same trace, ControlDriver in charge -------------
    let world = spec.build(Some(&model_bytes)).expect("world builds");
    let mut engine = ShardedEngine::try_new(world.sccf, world.histories, base_cfg.clone())
        .expect("closed-loop engine");
    engine.refresh_global_tier().expect("initial tier");
    let mut driver = ControlDriver::new(engine, base_cfg, policy)
        .expect("valid policy")
        .with_batches(n_users / 2, n_users / 2);
    let mut closed_probes = Probes::default();
    let mut gen = WorkloadGen::new(wl);
    while let Some(tick) = gen.next_tick() {
        drive(driver.engine_mut(), &tick, &mut closed_probes);
        driver.step().expect("control tick");
    }
    if std::env::var("SCCF_CONTROL_DEBUG").is_ok() {
        for r in driver.log() {
            eprintln!(
                "t={} shards={} pressure={:.3} stale={} inflight={} dec={:?} step={:?}",
                r.obs.tick,
                r.obs.n_shards,
                r.obs.pressure,
                r.obs.staleness,
                r.obs.epoch_in_flight,
                r.decision,
                r.step
            );
        }
    }
    driver.settle(64).expect("control plane drains");
    let (mut scale_ups, mut scale_downs, mut full_refreshes, mut delta_refreshes) = (0, 0, 0, 0);
    let mut shards = 1usize;
    for r in driver.log() {
        match r.step {
            ActuatorStep::BeginReshard(m) => {
                if m > shards {
                    scale_ups += 1;
                } else {
                    scale_downs += 1;
                }
                shards = m;
            }
            ActuatorStep::BeginRefresh { delta: false } => full_refreshes += 1,
            ActuatorStep::BeginRefresh { delta: true } => delta_refreshes += 1,
            _ => {}
        }
    }
    let closed_stats = driver.engine_mut().serving_stats().expect("closed stats");
    let closed_stall_ratio =
        closed_stats.pressure.stalls as f64 / closed_stats.pressure.sends.max(1) as f64;
    let closed_staleness = closed_stats.neighborhood.events_since_refresh;
    let closed_final_shards = driver.engine().n_shards();

    // --- delta-refresh cost vs dirty-set size --------------------------
    // A full refresh cleans every user; each round then touches k
    // distinct users and the delta must export exactly those k. Clearing
    // the tier first is how an operator forces the full rebuild.
    let engine = driver.engine_mut();
    engine.clear_global_tier().expect("no epoch in flight");
    let full_rep = engine.refresh_global_tier().expect("full refresh");
    // (dirty users touched, users the delta exported, delta ms)
    let mut delta_cost: Vec<(u64, u64, f64)> = Vec::new();
    for pct in [1usize, 5, 20] {
        let k = (n_users * pct / 100).max(1);
        let touches: Vec<(u32, u32)> = (0..k as u32).map(|u| (u, u % n_items as u32)).collect();
        engine.ingest_batch(&touches).expect("touch users");
        engine.flush().expect("drain touches");
        let rep = engine.refresh_global_tier().expect("delta refresh");
        delta_cost.push((k as u64, rep.users, rep.duration_ms));
    }
    let exports_dirty_set = delta_cost.iter().all(|p| p.1 == p.0);
    let below_full = delta_cost.iter().all(|p| p.1 < full_rep.users);
    // "Cost tracks write rate, not population", checked not assumed.
    let cost_tracks_dirty = delta_cost
        .iter()
        .all(|p| p.1 == p.0 && p.1 < n_users as u64);
    driver.into_engine().shutdown();

    let (open_p, closed_p) = (&open_probes, &closed_probes);
    let mut t = Table::new(
        format!(
            "Closed vs open loop — {n_users} users, {ticks} ticks, flash x{} at t={}",
            flash.multiplier, flash.start
        ),
        &["metric", "open (static 1 shard)", "closed (policy-driven)"],
    );
    let f0 = |x: f64| format!("{x:.0}");
    for (metric, open, closed) in [
        (
            "probe queue wait p99 (events)",
            f0(open_p.wait_all.p99_ms()),
            f0(closed_p.wait_all.p99_ms()),
        ),
        (
            "flash-window queue wait p99",
            f0(open_p.wait_flash.p99_ms()),
            f0(closed_p.wait_flash.p99_ms()),
        ),
        (
            "flash tail queue wait p99 (2nd half)",
            f0(open_p.wait_tail.p99_ms()),
            f0(closed_p.wait_tail.p99_ms()),
        ),
        (
            "recommend p99 (wall ms)",
            f4(open_p.all.p99_ms()),
            f4(closed_p.all.p99_ms()),
        ),
        (
            "flash-window p99 (wall ms)",
            f4(open_p.flash.p99_ms()),
            f4(closed_p.flash.p99_ms()),
        ),
        (
            "flash tail p99 (wall ms, 2nd half)",
            f4(open_p.tail.p99_ms()),
            f4(closed_p.tail.p99_ms()),
        ),
        (
            "router stall ratio",
            f4(open_stall_ratio),
            f4(closed_stall_ratio),
        ),
        (
            "final tier staleness (events)",
            open_staleness.to_string(),
            closed_staleness.to_string(),
        ),
        (
            "final shards",
            "1".to_string(),
            closed_final_shards.to_string(),
        ),
        (
            "scale-ups / scale-downs",
            "-".to_string(),
            format!("{scale_ups} / {scale_downs}"),
        ),
        (
            "tier refreshes (full / delta)",
            "-".to_string(),
            format!("{full_refreshes} / {delta_refreshes}"),
        ),
    ] {
        t.push(&[metric.to_string(), open, closed]);
    }

    let mut dt = Table::new(
        format!("Delta refresh cost vs dirty-set size — population {n_users}"),
        &["dirty users", "exported users", "refresh (ms)"],
    );
    dt.push(&[
        format!("{n_users} (full)"),
        full_rep.users.to_string(),
        f2(full_rep.duration_ms),
    ]);
    for &(dirty, exported, ms) in &delta_cost {
        dt.push(&[dirty.to_string(), exported.to_string(), f2(ms)]);
    }

    let closed_beats_open = closed_p.wait_tail.p99_ms() <= open_p.wait_tail.p99_ms();
    let open_json = open_p.json(
        ("shards", Json::int(1)),
        open_stall_ratio,
        vec![("final_staleness", Json::int(open_staleness))],
    );
    let closed_json = closed_p.json(
        ("final_shards", Json::int(closed_final_shards)),
        closed_stall_ratio,
        vec![
            ("scale_ups", Json::int(scale_ups)),
            ("scale_downs", Json::int(scale_downs)),
            ("full_refreshes", Json::int(full_refreshes)),
            ("delta_refreshes", Json::int(delta_refreshes)),
            ("final_staleness", Json::int(closed_staleness)),
        ],
    );
    let delta_rows = delta_cost.iter().map(|&(dirty, exported, ms)| {
        Json::obj([
            ("dirty_users", Json::int(dirty)),
            ("refresh_users", Json::int(exported)),
            ("ms", Json::num(ms, 3)),
        ])
    });
    let delta_json = Json::obj([
        ("full_users", Json::int(full_rep.users)),
        ("full_ms", Json::num(full_rep.duration_ms, 3)),
        ("points", Json::Arr(delta_rows.collect())),
        ("cost_tracks_dirty", Json::Bool(cost_tracks_dirty)),
    ]);
    let fields = vec![
        ("n_users", Json::int(n_users)),
        ("n_items", Json::int(n_items)),
        ("ticks", Json::int(ticks)),
        ("base_events_per_tick", Json::int(base_events)),
        ("flash_start", Json::int(flash.start)),
        ("flash_len", Json::int(flash.len)),
        ("flash_multiplier", Json::num(flash.multiplier, 1)),
        ("open_loop", open_json),
        ("closed_loop", closed_json),
        (
            "closed_beats_open_flash_tail_wait",
            Json::Bool(closed_beats_open),
        ),
        ("delta_refresh", delta_json),
    ];
    let mut a = BenchArtifact::new("BENCH_control.json", fields, vec![t, dt]);
    // Checked here: structure, the policy actually scaling, and
    // delta-refresh cost tracking the dirty-user count — NOT the latency
    // race (wall-clock on shared CI runners is noise; the deterministic
    // queue-wait comparison is reported in the artifact for the runbook).
    a.require_keys(
        "",
        "n_users ticks flash_start flash_len open_loop closed_loop delta_refresh \
         closed_beats_open_flash_tail_wait",
    );
    for side in ["open_loop", "closed_loop"] {
        a.require_keys(
            side,
            "p99_ms flash_p99_ms flash_tail_p99_ms wait_p99 flash_wait_p99 flash_tail_wait_p99 \
             stall_ratio final_staleness",
        );
    }
    a.check(
        closed_final_shards > 1,
        "the policy never scaled the fleet out",
    );
    a.check(scale_ups >= 1, "no scale-up decision fired");
    a.check(
        full_refreshes + delta_refreshes >= 1,
        "no refresh ever fired",
    );
    a.check(
        closed_staleness < open_staleness,
        "the closed loop must keep the tier fresher than never refreshing",
    );
    a.check(delta_cost.len() >= 3, "several dirty-set sizes measured");
    a.check(
        exports_dirty_set,
        "a delta refresh must export exactly the dirty set",
    );
    a.check(
        below_full,
        "delta cost must stay below the full-population export",
    );
    a.check(
        cost_tracks_dirty,
        "delta_refresh.cost_tracks_dirty must be true",
    );
    a
}
