//! `bench-fleet`: the cost of crossing process boundaries.

use std::time::Instant;

use sccf_data::catalog::Scale;
use sccf_net::{Connection, FleetRouter, Request, Supervisor, WorldSpec};
use sccf_serving::{RecQuery, RouterKind, ServingApi, ShardedConfig, ShardedEngine};
use sccf_util::table::f2;
use sccf_util::{Json, Table, TimingStats};

use super::BenchArtifact;
use crate::harness::{event_at, HarnessConfig};

/// A 2-process × 2-shard loopback fleet (spawned from this binary's own
/// `serve-shard` role) versus a 4-shard in-process engine on the same
/// event stream, plus a 4-member fan-out point that isolates the
/// pipelined transport's overlap.
///
/// Four numbers matter operationally: pipelined ingest throughput vs
/// the depth-1 sequential transport on the same seeded stream, the
/// single-recommend RTT (one framed round trip — the floor a remote
/// deployment pays per uncached query), the fan-out overlap (average
/// in-flight concurrency of a one-request-per-member wave — the
/// sum-of-RTTs → max-of-RTTs claim, measured), and the
/// bitwise-equality bit (the fleet must not buy its numbers with
/// drift).
pub fn bench_fleet(h: &HarnessConfig) -> BenchArtifact {
    const PROCS: usize = 2;
    const PER: usize = 2;
    let total = PROCS * PER;
    let (n_users, n_items, n_events, n_rtt) = match h.scale {
        Scale::Quick => (400usize, 160usize, 4_000usize, 300usize),
        Scale::Full => (2_000, 600, 20_000, 2_000),
    };
    let spec = WorldSpec {
        n_users,
        n_items,
        seed: h.seed,
        ..WorldSpec::default()
    };

    // One trained model, shared by file, so the fleet and the
    // in-process baseline hold identical floats.
    let tmp = std::env::temp_dir().join(format!("sccf-bench-fleet-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).expect("temp dir");
    let model_path = tmp.join("model.fism");
    std::fs::write(&model_path, spec.train_model()).expect("write model");
    let model_bytes = std::fs::read(&model_path).expect("read model");

    let exe = std::env::current_exe().expect("own path");
    // `procs` in-memory members of `per` shards each, re-executing this
    // binary.
    let launch = |procs: usize, per: usize| {
        Supervisor::launch_uniform(&exe, procs, per, 0, &spec, &model_path, None)
            .expect("fleet launches")
    };
    let sup = launch(PROCS, PER);
    let topology = sup.topology().expect("valid tiling");
    let mut router = FleetRouter::connect(topology).expect("fleet handshake");

    let world = spec.build(Some(&model_bytes)).expect("world builds");
    let mut inproc = ShardedEngine::try_new(
        world.sccf,
        world.histories,
        ShardedConfig {
            n_shards: total,
            queue_capacity: 256,
            router: RouterKind::Modulo,
        },
    )
    .expect("in-process baseline");

    let events: Vec<(u32, u32)> = (0..n_events)
        .map(|k| event_at(k, n_users, n_items))
        .collect();

    // --- ingest throughput, flush barrier included both sides ---------
    //
    // Both transports get one half of the same seeded stream, in the
    // same `PIPELINE_CHUNKS`-batch shape, so the only variable is the
    // pipeline depth: depth 1 (each batch is a full round trip per
    // member before the next starts) vs depth 4 (several batches in
    // flight per member; the server's read-ahead overlaps socket
    // reads with engine applies). The in-process baseline ingests
    // each half as one batch: its best case. Every configuration runs
    // `INGEST_REPS` times, interleaved, and reports its best rate —
    // throughput is noise-floored, so best-of is the honest estimate
    // of what the configuration can do. The fleet/inproc ratio is
    // taken *within* a rep (the two legs run back-to-back, so
    // machine-wide drift hits both and cancels) and the best paired
    // rep is reported. Both engines see the same total stream (each
    // half, `INGEST_REPS` times), so the bitwise check below still
    // covers everything.
    const PIPELINE_CHUNKS: usize = 8;
    const INGEST_REPS: usize = 5;
    let half = events.len() / 2;
    let (seq_half, pipe_half) = events.split_at(half);
    let to_batches = |half: &[(u32, u32)]| -> Vec<Vec<(u32, u32)>> {
        let chunk = half.len().div_ceil(PIPELINE_CHUNKS);
        half.chunks(chunk).map(<[_]>::to_vec).collect()
    };
    let seq_batches = to_batches(seq_half);
    let pipe_batches = to_batches(pipe_half);

    // One fleet leg: `batches` (`n` events) at the given pipeline
    // depth, flush included; events per second.
    let fleet_leg =
        |router: &mut FleetRouter, depth: usize, batches: &[Vec<(u32, u32)>], n: usize| {
            router.set_pipeline_depth(depth);
            let t0 = Instant::now();
            let acked = router.ingest_batches(batches).expect("fleet ingest");
            router.flush().expect("fleet flush");
            let rate = n as f64 / t0.elapsed().as_secs_f64();
            assert_eq!(acked, n as u64, "every event acknowledged");
            rate
        };
    // Best rates: depth-1 fleet, pipelined fleet, in-process engine.
    let (mut seq_rate, mut fleet_rate, mut inproc_rate) = (0.0f64, 0.0f64, 0.0f64);
    let mut fleet_over_inproc = 0.0f64;
    for _rep in 0..INGEST_REPS {
        let seq = fleet_leg(&mut router, 1, &seq_batches, seq_half.len());
        seq_rate = seq_rate.max(seq);
        let depth = sccf_net::DEFAULT_PIPELINE_DEPTH;
        let pipe = fleet_leg(&mut router, depth, &pipe_batches, pipe_half.len());
        fleet_rate = fleet_rate.max(pipe);

        inproc.ingest_batch(seq_half).expect("in-process ingest");
        inproc.flush().expect("in-process flush");
        let t0 = Instant::now();
        inproc.ingest_batch(pipe_half).expect("in-process ingest");
        inproc.flush().expect("in-process flush");
        let inproc_pipe = pipe_half.len() as f64 / t0.elapsed().as_secs_f64();
        inproc_rate = inproc_rate.max(inproc_pipe);
        fleet_over_inproc = fleet_over_inproc.max(pipe / inproc_pipe);
    }

    // --- single-recommend RTT over TCP vs in-process -------------------
    let query = RecQuery::top(10);
    let mut rtt = TimingStats::new();
    for k in 0..n_rtt {
        let user = (k % n_users) as u32;
        let t = Instant::now();
        router.try_recommend(user, &query).expect("fleet recommend");
        rtt.record_ms(t.elapsed().as_secs_f64() * 1e3);
    }
    let rtt_mean_ms = rtt.mean_ms();

    let mut inproc_sum = 0.0f64;
    for k in 0..n_rtt {
        let user = (k % n_users) as u32;
        let t = Instant::now();
        inproc
            .try_recommend(user, &query)
            .expect("in-process recommend");
        inproc_sum += t.elapsed().as_secs_f64() * 1e3;
    }
    let inproc_recommend_ms = inproc_sum / n_rtt as f64;

    // --- the correctness bit: sampled slates must match exactly --------
    let step = (n_users / 64).max(1);
    let sample_bitwise_equal = (0..n_users as u32).step_by(step).all(|u| {
        let f = router.try_recommend(u, &query).expect("fleet recommend");
        let b = inproc
            .try_recommend(u, &query)
            .expect("in-process recommend");
        let bits = |r: &sccf_serving::RecResponse| -> Vec<(u32, u32)> {
            r.items.iter().map(|s| (s.id, s.score.to_bits())).collect()
        };
        bits(&f) == bits(&b)
    });

    router.shutdown_all().expect("graceful shutdown");
    sup.shutdown();
    inproc.shutdown();

    // --- 4-member fan-out: overlap and wave latency --------------------
    //
    // One process per shard so a fan-out touches four sockets. Raw
    // connections, one recommend per member per wave. `span` is the
    // time each request is outstanding (send → its response); `wall`
    // is the whole wave. Σ span / Σ wall is the average number of
    // requests in flight: the sequential transport pays the RTTs one
    // after another (overlap ≡ 1), the pipelined transport keeps every
    // member's request on the wire at once (overlap → N even on one
    // core, because the waiting — not the computing — is what
    // overlaps).
    const FAN_PROCS: usize = 4;
    let fan_sup = launch(FAN_PROCS, 1);
    let mut fan_conns: Vec<Connection> = (0..FAN_PROCS)
        .map(|m| {
            let mut c = Connection::connect(fan_sup.addr(m).as_str()).expect("dial member");
            c.hello().expect("handshake");
            c
        })
        .collect();
    // With a modulo ring and one shard per member, member m owns every
    // user ≡ m (mod FAN_PROCS).
    let user_for =
        |m: usize, wave: usize| -> u32 { (m + FAN_PROCS * (wave % (n_users / FAN_PROCS))) as u32 };
    let fan_req = |m: usize, wave: usize| Request::Recommend {
        user: user_for(m, wave),
        query: query.clone(),
    };
    let n_waves = (n_rtt / 2).max(50);
    // Warmup: page in both paths before timing.
    for w in 0..10 {
        for (m, conn) in fan_conns.iter_mut().enumerate() {
            conn.call(&fan_req(m, w)).expect("warmup");
        }
    }
    let mut seq_span = 0.0f64;
    let mut seq_wall = 0.0f64;
    let mut seq_wave = TimingStats::new();
    for w in 0..n_waves {
        let wave0 = Instant::now();
        for (m, conn) in fan_conns.iter_mut().enumerate() {
            let t = Instant::now();
            conn.call(&fan_req(m, w)).expect("sequential wave");
            seq_span += t.elapsed().as_secs_f64();
        }
        let wall = wave0.elapsed().as_secs_f64();
        seq_wall += wall;
        seq_wave.record_ms(wall * 1e3);
    }
    let mut pipe_span = 0.0f64;
    let mut pipe_wall = 0.0f64;
    let mut pipe_wave = TimingStats::new();
    let mut sent_at = [Instant::now(); FAN_PROCS];
    for w in 0..n_waves {
        let wave0 = Instant::now();
        for (m, conn) in fan_conns.iter_mut().enumerate() {
            sent_at[m] = Instant::now();
            conn.send(&fan_req(m, w)).expect("pipelined send");
        }
        for (m, conn) in fan_conns.iter_mut().enumerate() {
            conn.recv().expect("pipelined recv");
            pipe_span += sent_at[m].elapsed().as_secs_f64();
        }
        let wall = wave0.elapsed().as_secs_f64();
        pipe_wall += wall;
        pipe_wave.record_ms(wall * 1e3);
    }
    // Average in-flight concurrency of a one-request-per-member wave:
    // 1.0 by construction when sequential, → N when pipelined.
    let fanout_overlap_seq = seq_span / seq_wall;
    let fanout_overlap = pipe_span / pipe_wall;
    for conn in &mut fan_conns {
        let _ = conn.call(&Request::Shutdown);
    }
    fan_sup.shutdown();
    let _ = std::fs::remove_dir_all(&tmp);

    let mut t = Table::new(
        format!(
            "Fleet vs in-process — {PROCS} procs × {PER} shards, {n_users} users, {n_events} events"
        ),
        &["metric", "fleet (loopback TCP)", "in-process"],
    );
    t.push(&[
        "ingest, pipelined depth 4 (events/s)".to_string(),
        format!("{fleet_rate:.0}"),
        format!("{inproc_rate:.0}"),
    ]);
    t.push(&[
        "ingest, sequential depth 1 (events/s)".to_string(),
        format!("{seq_rate:.0}"),
        "—".to_string(),
    ]);
    t.push(&[
        "recommend mean (ms)".to_string(),
        f2(rtt_mean_ms),
        f2(inproc_recommend_ms),
    ]);
    t.push(&[
        "recommend p95 (ms)".to_string(),
        f2(rtt.p95_ms()),
        "—".to_string(),
    ]);
    t.push(&[
        format!("{FAN_PROCS}-member fan-out overlap (pipelined)"),
        format!("{fanout_overlap:.2}"),
        format!("{fanout_overlap_seq:.2} sequential"),
    ]);
    t.push(&[
        format!("{FAN_PROCS}-member wave p95 (ms, pipelined)"),
        f2(pipe_wave.p95_ms()),
        format!("{} sequential", f2(seq_wave.p95_ms())),
    ]);
    t.push(&[
        "sampled slates bit-identical".to_string(),
        sample_bitwise_equal.to_string(),
        "reference".to_string(),
    ]);

    let pipeline_depth = sccf_net::DEFAULT_PIPELINE_DEPTH;
    let rtt_p95_ms = rtt.p95_ms();
    let fields = vec![
        ("procs", Json::int(PROCS)),
        ("shards_per_proc", Json::int(PER)),
        ("total_shards", Json::int(total)),
        ("n_users", Json::int(n_users)),
        ("n_items", Json::int(n_items)),
        ("events", Json::int(n_events)),
        ("pipeline_depth", Json::int(pipeline_depth)),
        ("fleet_ingest_events_per_sec", Json::num(fleet_rate, 1)),
        ("fleet_ingest_seq_events_per_sec", Json::num(seq_rate, 1)),
        ("inproc_ingest_events_per_sec", Json::num(inproc_rate, 1)),
        ("fleet_over_inproc", Json::num(fleet_over_inproc, 4)),
        ("rtt_mean_ms", Json::num(rtt_mean_ms, 4)),
        ("rtt_p95_ms", Json::num(rtt_p95_ms, 4)),
        ("inproc_recommend_ms", Json::num(inproc_recommend_ms, 4)),
        ("fanout_procs", Json::int(FAN_PROCS)),
        ("fanout_waves", Json::int(n_waves)),
        ("fanout_overlap", Json::num(fanout_overlap, 4)),
        ("fanout_overlap_seq", Json::num(fanout_overlap_seq, 4)),
        ("wave_p95_seq_ms", Json::num(seq_wave.p95_ms(), 4)),
        ("wave_p95_pipelined_ms", Json::num(pipe_wave.p95_ms(), 4)),
        ("sample_bitwise_equal", Json::Bool(sample_bitwise_equal)),
    ];
    let mut a = BenchArtifact::new("BENCH_fleet.json", fields, vec![t]);
    a.require_keys(
        "",
        "procs shards_per_proc total_shards events pipeline_depth fleet_ingest_events_per_sec \
         fleet_ingest_seq_events_per_sec inproc_ingest_events_per_sec fleet_over_inproc \
         rtt_mean_ms rtt_p95_ms inproc_recommend_ms fanout_procs fanout_waves fanout_overlap \
         fanout_overlap_seq wave_p95_seq_ms wave_p95_pipelined_ms sample_bitwise_equal",
    );
    a.check(
        pipeline_depth > 1,
        "the pipelined run must actually pipeline",
    );
    a.check(fleet_rate > 0.0, "fleet_ingest_events_per_sec > 0");
    a.check(seq_rate > 0.0, "fleet_ingest_seq_events_per_sec > 0");
    a.check(
        rtt_p95_ms >= rtt_mean_ms && rtt_mean_ms > 0.0,
        "rtt_p95_ms >= rtt_mean_ms > 0",
    );
    // The structural claim: a pipelined one-request-per-member wave
    // keeps several requests in flight while the sequential transport
    // is pinned at one. The overlap ratio is scheduling-noise-robust (it
    // measures waiting, not speed), so it holds even on throttled CI
    // runners.
    a.check(
        (0.8..=1.2).contains(&fanout_overlap_seq),
        format!("sequential fan-out overlap must stay near 1, got {fanout_overlap_seq}"),
    );
    a.check(
        fanout_overlap > 1.5,
        format!("pipelined fan-out must overlap member waits, got {fanout_overlap}"),
    );
    a.check(
        sample_bitwise_equal,
        "the fleet must not buy its throughput with drift from the in-process engine",
    );
    a
}
