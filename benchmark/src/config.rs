//! Every size, rate and knob of the benchmark, in one place.
//!
//! Nothing here is derived at run time from how fast the build is: a
//! parent and a change given the same `--workload --seed --seconds`
//! send byte-identical load (the `ops_digest` proves it). Closed-loop
//! workloads are **fixed work** — `--seconds`, which the driver passes
//! as `run_seconds` from `BENCHMARK.json`, selects how much through the
//! `*_PER_SECOND` constants below: the rate the seed sustains on the
//! host the numbers in `README.md` were taken on, so the measured phase
//! takes about `--seconds` there. A faster build finishes the same work
//! sooner; it is never handed more of it (histories grow with every
//! event and `infer_user` is O(history), so fixed *time* would penalise
//! the faster build with dearer late ops).

use sccf_net::WorldSpec;

use crate::json::Json;

/// Declares each constant once; the `config` block of a result file is
/// generated from the same list, so the two cannot drift apart.
macro_rules! constants {
    ($( $(#[$doc:meta])* $name:ident: $ty:ty = $value:expr; )*) => {
        $( $(#[$doc])* pub const $name: $ty = $value; )*

        fn constants_json() -> Vec<(String, Json)> {
            vec![ $( (stringify!($name).to_lowercase(), Json::Num($name as f64)), )* ]
        }
    };
}

constants! {
    // ---- the fleet under test: 2 `serve-shard` processes × 1 shard ----
    MEMBERS: usize = 2;
    SHARDS_PER_MEMBER: usize = 1;
    VNODES: usize = 0;
    FSYNC_EVERY: u32 = 64;
    CHECKPOINT_EVERY: u64 = 50_000;
    READ_AHEAD: usize = 4;
    /// Users per `ExportUsers` request when collecting the frozen tier.
    TIER_EXPORT_CHUNK: usize = 2_000;
    WORLD_SEED: u64 = 2026;

    // ---- every run ------------------------------------------------------
    /// Set-ups per untraced run; `setup_s` is their median (one set-up
    /// of the small world repeats within 35–50 % from run to run). The
    /// first ones are shut down straight away, the last carries the load.
    SETUPS_PER_RUN: usize = 3;
    /// A slate later than this after its event was due misses the SLO.
    SLO_MS: f64 = 25.0;
    SLATE_K: usize = 10;
    /// Users whose held-out item is looked for in the fleet's top-20.
    HR_USERS: usize = 2_000;
    HR_K: usize = 20;
    /// Users whose slates are pinned bit-for-bit (fleet vs in-process,
    /// before vs after a kill).
    PIN_USERS: usize = 64;
    /// A run that is not done after this long kills its children,
    /// removes its temp dir and exits 3 (the driver's limit is 180 s).
    HARD_TIMEOUT_S: u64 = 150;

    // ---- mixed_open: open loop on a fixed schedule ----------------------
    TICK_MS: u64 = 5;
    EVENTS_PER_TICK: usize = 10;
    /// Slates asked per tick: the tick's first distinct writers.
    SLATES_PER_TICK: usize = 2;
    MIXED_WARMUP_TICKS: usize = 200;
    /// Ticks per measured window: 2 s, 800 slates, so a window's p99
    /// has eight samples beyond it and a 12 s run holds six windows.
    MIXED_WINDOW_TICKS: usize = 400;

    // ---- ingest_closed: closed loop, one client, fixed work -------------
    INGEST_BATCH: usize = 256;
    INGEST_BATCHES_PER_CALL: usize = 4;
    /// Calls (of `INGEST_BATCHES_PER_CALL` × `INGEST_BATCH` events) per
    /// second of `--seconds`.
    INGEST_CALLS_PER_SECOND: f64 = 8.0;
    INGEST_WARMUP_CALLS: usize = 8;
    /// Calls per measured window, each closed by a `flush`.
    INGEST_WINDOW_CALLS: usize = 1;

    // ---- rec_wire: closed loop, one client, no writes -------------------
    REC_PER_SECOND: f64 = 17_000.0;
    REC_WARMUP: usize = 10_000;
    /// Recommends per measured window (≈ 50 ms): a window's p99 has ten
    /// samples beyond it.
    REC_WINDOW_OPS: usize = 1_000;
    /// Events through fleet and in-process reference before the pin check.
    REC_PIN_PREFIX_EVENTS: usize = 2_000;

    // ---- restart: scripted kill / recover cycles ------------------------
    RESTART_PREFIX_A: usize = 4_000;
    RESTART_PREFIX_B: usize = 2_000;
    RESTART_EVENTS_PER_CYCLE: usize = 20;
    /// One kill → recover → verify → ingest cycle per this many seconds
    /// of `--seconds` (at least 2 cycles).
    RESTART_SECONDS_PER_CYCLE: f64 = 0.2;
    /// Cycles per measured window: the median and the slowest of three.
    RESTART_WINDOW_CYCLES: usize = 3;

    // ---- traced run -----------------------------------------------------
    /// Samples per live probe (ping, direct vs routed recommend, fan-out).
    PROBE_SAMPLES: usize = 1_000;
    /// Events replayed into the in-process shadow replica at most.
    SHADOW_PREFIX_CAP: usize = 4_000;
    SHADOW_SAMPLES: usize = 400;
    WAL_PROBE_RECORDS: usize = 64 * 400;
    PROTO_PROBE_ROUNDS: usize = 2_000;
}

/// `world_m`: engine work (infer, Eq. 11 local + frozen-tier search,
/// Eq. 12, candidates, fusion) dominates a request.
pub fn world_m() -> WorldSpec {
    WorldSpec {
        n_users: 5_000,
        n_items: 1_000,
        seed: WORLD_SEED,
        dim: 16,
        epochs: 2,
        beta: 50,
        recent_window: 10,
        candidate_n: 100,
    }
}

/// `world_s`: `BENCH_fleet.json`'s scale — engine work is tens of µs,
/// so the transport is most of a request.
pub fn world_s() -> WorldSpec {
    WorldSpec {
        n_users: 2_000,
        n_items: 600,
        seed: WORLD_SEED,
        ..WorldSpec::default()
    }
}

/// Every constant above plus the two worlds and what the program under
/// test was told, for the `config` block of a result file.
pub fn as_json() -> Json {
    let world = |w: WorldSpec| {
        Json::obj(vec![
            ("n_users", Json::Num(w.n_users as f64)),
            ("n_items", Json::Num(w.n_items as f64)),
            ("seed", Json::Num(w.seed as f64)),
            ("dim", Json::Num(w.dim as f64)),
            ("epochs", Json::Num(w.epochs as f64)),
            ("beta", Json::Num(w.beta as f64)),
            ("recent_window", Json::Num(w.recent_window as f64)),
            ("candidate_n", Json::Num(w.candidate_n as f64)),
        ])
    };
    let mut fields = constants_json();
    fields.extend([
        ("world_m".to_string(), world(world_m())),
        ("world_s".to_string(), world(world_s())),
        (
            "pipeline_depth".to_string(),
            Json::Num(sccf_net::DEFAULT_PIPELINE_DEPTH as f64),
        ),
        ("skew".to_string(), Json::Num(crate::loadgen::SKEW)),
        ("frozen_tier".to_string(), Json::str("flat")),
        (
            "transport".to_string(),
            Json::str("loopback TCP (127.0.0.1)"),
        ),
    ]);
    Json::Obj(fields)
}
