//! Per-layer metrics, measured **from outside**: by timing calls into
//! public functions — on the live fleet where the surface allows,
//! otherwise on the in-process [`Shadow`] replica (the same world as two
//! shard views with the same tier installed, fed the workload's own
//! events) or on scratch files in the run directory. Only a traced run
//! takes them; nothing here runs while end-to-end metrics are measured.
//!
//! Every metric is reported on every workload. Those taken from the
//! servers' counters reflect what the workload did (so `wal.syncs` is
//! small on `rec_wire`); the probes use the workload's world, the users
//! it asks about and the state its events left.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use sccf_core::{CandidateSource, Exclusion, TierScratch};
use sccf_models::InductiveUiModel;
use sccf_net::{Connection, Request, Response};
use sccf_serving::api::{RecQuery, RecResponse, ServingApi, ServingStats};
use sccf_serving::sharded::{DurabilityConfig, RouterKind, ShardedConfig, ShardedEngine};
use sccf_serving::wal::{
    read_and_repair_wal, WalRecord, WalWriter, RECORD_FRAME_LEN, RECORD_PAYLOAD_LEN,
};

use crate::check::Shadow;
use crate::config::*;
use crate::fleet::{Fleet, SetupTimes};
use crate::stats::{mean, percentile};
use crate::workloads::Outcome;

/// `name → (value, samples)`; units live in `BENCHMARK.json`.
pub type Layers = BTreeMap<&'static str, (f64, usize)>;

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

fn direct(fleet: &Fleet, member: usize) -> Result<Connection, String> {
    let mut conn = Connection::connect(fleet.addr(member).as_str())
        .map_err(|e| format!("probe connection to member {member}: {e}"))?;
    conn.hello()
        .map_err(|e| format!("probe handshake with member {member}: {e}"))?;
    Ok(conn)
}

fn member_stats(conn: &mut Connection) -> Result<ServingStats, String> {
    match conn.call(&Request::Stats) {
        Ok(Response::Stats(s)) => Ok(*s),
        Ok(_) => Err("member answered Stats with another variant".into()),
        Err(e) => Err(format!("member stats: {e}")),
    }
}

/// Probes that need the live fleet. Also leaves a synced copy of member
/// 0's durability directory at `copy_to` for the recovery probe.
pub fn probe_fleet(
    fleet: &mut Fleet,
    outcome: &Outcome,
    copy_to: &Path,
    out: &mut Layers,
) -> Result<Option<RecResponse>, String> {
    let members = MEMBERS;
    let mut conns: Vec<Connection> = (0..members)
        .map(|m| direct(fleet, m))
        .collect::<Result<_, _>>()?;

    // -- counters the servers keep (per member: the router's merged
    //    view drops `pressure`) -----------------------------------------
    let per_member: Vec<ServingStats> = conns
        .iter_mut()
        .map(member_stats)
        .collect::<Result<_, _>>()?;
    let sum = |f: &dyn Fn(&ServingStats) -> f64| per_member.iter().map(f).sum::<f64>();
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let sends = sum(&|s| s.pressure.sends as f64);
    out.insert(
        "sharded.stall_ratio",
        (
            ratio(sum(&|s| s.pressure.stalls as f64), sends),
            sends as usize,
        ),
    );
    out.insert(
        "sharded.stall_ms",
        (sum(&|s| s.pressure.stall_ms), sends as usize),
    );
    out.insert(
        "sharded.peak_queue",
        (
            per_member
                .iter()
                .map(|s| s.pressure.peak_queue)
                .max()
                .unwrap_or(0) as f64,
            members,
        ),
    );
    let shard_events: Vec<f64> = per_member
        .iter()
        .flat_map(|s| s.shards.iter().map(|r| r.events as f64))
        .collect();
    let max_events = shard_events.iter().copied().fold(0.0, f64::max);
    out.insert(
        "sharded.shard_skew",
        (ratio(max_events, mean(&shard_events)), shard_events.len()),
    );
    let requests = sum(&|s| s.transport.requests as f64);
    out.insert("transport.requests", (requests, members));
    out.insert(
        "transport.read_ahead_hit_ratio",
        (
            ratio(sum(&|s| s.transport.read_ahead_hits as f64), requests),
            requests as usize,
        ),
    );
    let wal_records = sum(&|s| s.durability.wal_records as f64);
    out.insert(
        "wal.syncs",
        (sum(&|s| s.durability.wal_syncs as f64), members),
    );
    out.insert(
        "wal.bytes_per_event",
        (
            ratio(sum(&|s| s.durability.wal_bytes as f64), wal_records),
            wal_records as usize,
        ),
    );
    let events = sum(&|s| s.events as f64);
    let timing_sum = |f: &dyn Fn(&ServingStats) -> &sccf_util::TimingStats| {
        per_member
            .iter()
            .map(|s| f(s).mean_ms() * f(s).count() as f64)
            .sum::<f64>()
    };
    out.insert(
        "core.ingest_infer_us",
        (
            ratio(timing_sum(&|s| &s.timings.infer), events) * 1e3,
            events as usize,
        ),
    );
    out.insert(
        "core.ingest_identify_us",
        (
            ratio(timing_sum(&|s| &s.timings.identify), events) * 1e3,
            events as usize,
        ),
    );

    // -- transport floor: framing + CRC + syscalls + server loop --------
    let mut rtt = Vec::with_capacity(PROBE_SAMPLES);
    for _ in 0..PROBE_SAMPLES {
        let t = Instant::now();
        conns[0]
            .call(&Request::Ping)
            .map_err(|e| format!("ping probe: {e}"))?;
        rtt.push(us(t));
    }
    out.insert("transport.ping_rtt_us", (percentile(&rtt, 0.5), rtt.len()));

    // -- routed vs direct recommend, same request, alternated -----------
    let query = RecQuery::top(SLATE_K);
    let (mut routed, mut straight, mut remote) = (Vec::new(), Vec::new(), Vec::new());
    let (mut infer, mut identify) = (Vec::new(), Vec::new());
    let mut a_slate = None;
    for (i, &user) in outcome.sample_users.iter().enumerate() {
        let owner = fleet.router().owner_of(user);
        let via_router = |fleet: &mut Fleet| -> Result<f64, String> {
            let t = Instant::now();
            fleet
                .router()
                .try_recommend(user, &query)
                .map_err(|e| format!("routed recommend probe: {e}"))?;
            Ok(us(t))
        };
        // Whichever goes first warms the user's state for the other, so
        // the order alternates.
        if i % 2 == 0 {
            routed.push(via_router(fleet)?);
        }
        let t = Instant::now();
        let resp = conns[owner].call(&Request::Recommend {
            user,
            query: query.clone(),
        });
        let wall = us(t);
        if i % 2 == 1 {
            routed.push(via_router(fleet)?);
        }
        match resp {
            Ok(Response::Slate(s)) => {
                straight.push(wall);
                remote.push(wall - s.timing.total_ms() * 1e3);
                infer.push(s.timing.infer_ms * 1e3);
                identify.push(s.timing.identify_ms * 1e3);
                a_slate = Some(s);
            }
            Ok(_) => return Err("direct recommend probe: not a slate".into()),
            Err(e) => return Err(format!("direct recommend probe: {e}")),
        }
    }
    let n = routed.len();
    out.insert(
        "router.rec_self_us",
        (percentile(&routed, 0.5) - percentile(&straight, 0.5), n),
    );
    out.insert("transport.rec_remote_us", (percentile(&remote, 0.5), n));
    out.insert("core.rec_infer_us", (mean(&infer), n));
    out.insert("core.rec_identify_us", (mean(&identify), n));

    // -- fan-out overlap: one recommend per member per wave, raw
    //    connections; Σ in-flight span ÷ wall = requests in flight -------
    let by_member: Vec<Vec<u32>> = (0..members)
        .map(|m| {
            (0..fleet.spec.n_users as u32)
                .filter(|&u| fleet.router().owner_of(u) == m)
                .take(PROBE_SAMPLES / 2)
                .collect()
        })
        .collect();
    let waves = by_member.iter().map(Vec::len).min().unwrap_or(0);
    let (mut span, mut wall) = (0.0, 0.0);
    let mut sent_at = vec![Instant::now(); members];
    for wave in 0..waves {
        let wave0 = Instant::now();
        for ((conn, users), sent) in conns.iter_mut().zip(&by_member).zip(&mut sent_at) {
            *sent = Instant::now();
            conn.send(&Request::Recommend {
                user: users[wave],
                query: query.clone(),
            })
            .map_err(|e| format!("fan-out probe send: {e}"))?;
        }
        for (m, conn) in conns.iter_mut().enumerate() {
            conn.recv()
                .map_err(|e| format!("fan-out probe recv: {e}"))?;
            span += sent_at[m].elapsed().as_secs_f64();
        }
        wall += wave0.elapsed().as_secs_f64();
    }
    out.insert("router.fanout_overlap", (ratio(span, wall), waves));

    // -- checkpoint write, then a synced copy of member 0's directory ---
    let t = Instant::now();
    fleet
        .router()
        .checkpoint_all()
        .map_err(|e| format!("checkpoint probe: {e}"))?;
    out.insert("checkpoint.write_ms", (us(t) / 1e3, members));
    let after = fleet.stats()?;
    out.insert(
        "checkpoint.bytes",
        (
            after.durability.last_checkpoint_bytes as f64,
            after.durability.checkpoints as usize,
        ),
    );
    // A few events past the checkpoint so recovery has a WAL tail to
    // replay, made durable before the copy.
    let tail: Vec<(u32, u32)> = outcome
        .sample_users
        .iter()
        .take(200)
        .map(|&u| (u, u % fleet.spec.n_items as u32))
        .collect();
    fleet
        .router()
        .ingest_batch(&tail)
        .map_err(|e| format!("recovery probe tail: {e}"))?;
    fleet
        .router()
        .flush()
        .and_then(|()| fleet.router().wal_sync_all())
        .map_err(|e| format!("recovery probe sync: {e}"))?;
    std::fs::create_dir_all(copy_to).map_err(|e| format!("creating {}: {e}", copy_to.display()))?;
    for entry in std::fs::read_dir(fleet.member_dir(0)).map_err(|e| e.to_string())? {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.is_file() {
            let name = path.file_name().expect("files have names");
            std::fs::copy(&path, copy_to.join(name)).map_err(|e| e.to_string())?;
        }
    }
    Ok(a_slate)
}

/// What the in-process probes work from: the fleet's world, the bytes
/// it was armed with, what the workload sent, and two scratch paths
/// under the run directory.
pub struct InProcess<'a> {
    pub spec: &'a sccf_net::WorldSpec,
    pub model_bytes: &'a [u8],
    pub tier_bytes: &'a [u8],
    pub outcome: &'a Outcome,
    /// The synced copy of member 0's directory `probe_fleet` left.
    pub recover_dir: &'a Path,
    pub scratch_dir: &'a Path,
}

/// Probes on the in-process replica and on scratch files. `shadow` is
/// reused when the pin check already built one. Returns `(world_build_s,
/// recover_engine_ms)` for the restart waterfall.
pub fn probe_in_process(
    inputs: &InProcess<'_>,
    shadow: Option<Shadow>,
    a_slate: Option<RecResponse>,
    out: &mut Layers,
) -> Result<(f64, f64), String> {
    let InProcess {
        spec: fleet_spec,
        model_bytes,
        tier_bytes,
        outcome,
        recover_dir,
        scratch_dir,
    } = *inputs;
    // -- recovery without process start ---------------------------------
    let t = Instant::now();
    let world = fleet_spec.build(Some(model_bytes))?;
    let mut builds = vec![t.elapsed().as_secs_f64()];
    let t = Instant::now();
    let (engine, report) = ShardedEngine::recover(
        world.sccf,
        ShardedConfig {
            n_shards: SHARDS_PER_MEMBER,
            queue_capacity: 256,
            router: RouterKind::Slice {
                total: MEMBERS * SHARDS_PER_MEMBER,
                base: 0,
                vnodes: VNODES,
            },
        },
        DurabilityConfig {
            dir: recover_dir.to_path_buf(),
            fsync_every: FSYNC_EVERY,
            checkpoint_every_events: 0,
        },
    )
    .map_err(|e| format!("recovery probe: {e}"))?;
    let recover_ms = us(t) / 1e3;
    engine.shutdown();
    out.insert("recover.engine_ms", (recover_ms, report.checkpoints_loaded));
    out.insert(
        "recover.replayed_records",
        (report.replayed.len() as f64, report.wal_files),
    );

    // -- the replica: same world, same tier, the workload's events ------
    let mut shadow = match shadow {
        Some(s) => s,
        None => {
            let mut s = Shadow::build(fleet_spec, model_bytes, tier_bytes)?;
            builds.push(s.world_build_s);
            s.ingest(&outcome.replay)?;
            s
        }
    };
    out.insert("world.build_s", (mean(&builds), builds.len()));

    let query = RecQuery::top(SLATE_K);
    let users: Vec<u32> = outcome
        .sample_users
        .iter()
        .copied()
        .take(SHADOW_SAMPLES)
        .collect();
    let mut hop = Vec::with_capacity(users.len());
    for &u in &users {
        let t = Instant::now();
        let r = shadow
            .engine
            .try_recommend(u, &query)
            .map_err(|e| format!("shadow recommend: {e}"))?;
        hop.push(us(t) - r.timing.total_ms() * 1e3);
    }
    out.insert("sharded.hop_us", (percentile(&hop, 0.5), hop.len()));

    let (engines, _) = shadow.engine.shutdown_into_engines();
    let (mut infer_us, mut hist_len) = (Vec::new(), Vec::new());
    let (mut neigh_us, mut neigh_n, mut tier_us) = (Vec::new(), Vec::new(), Vec::new());
    let (mut cand_us, mut cand_n, mut fuse_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut tier_scratch = TierScratch::new();
    let mut tier_out = Vec::new();
    for &u in &users {
        let Some(engine) = engines.iter().find(|e| e.owns(u)) else {
            continue;
        };
        let sccf = engine.sccf();
        let history = engine.history(u);
        let mut scratch = sccf.new_scratch();
        hist_len.push(history.len() as f64);

        let t = Instant::now();
        let rep = std::hint::black_box(sccf.model().infer_user(history));
        let infer = us(t);
        infer_us.push(infer);

        let t = Instant::now();
        let neighbors = std::hint::black_box(sccf.neighbors_with(u, &rep, &mut scratch));
        let neigh = us(t);
        neigh_us.push(neigh);
        neigh_n.push(neighbors.len() as f64);

        if let Some(tier) = sccf.global_tier() {
            let q = sccf.index_vector(u, &rep);
            let beta = sccf.config().user_based.beta;
            let skip = |v: u32| v == u || engine.owns(v);
            tier_out.clear();
            let t = Instant::now();
            tier.search_append_with(&q, beta, &skip, &mut tier_scratch, &mut tier_out);
            tier_us.push(us(t));
            std::hint::black_box(&tier_out);
        }

        let t = Instant::now();
        sccf.candidate_features_with(u, history, &mut scratch);
        let cand = us(t);
        cand_n.push(scratch.candidates().items.len() as f64);
        // `candidate_features_with` re-infers and re-searches inside;
        // what is left after subtracting those is assembly itself.
        cand_us.push((cand - infer - neigh).max(0.0));

        let t = Instant::now();
        let slate = sccf
            .recommend_query(
                u,
                history,
                SLATE_K,
                CandidateSource::Configured,
                &Exclusion::History,
                &mut scratch,
            )
            .map_err(|e| format!("shadow recommend_query: {e}"))?;
        std::hint::black_box(slate);
        fuse_us.push((us(t) - cand).max(0.0));
    }
    let n = infer_us.len();
    out.insert("models.infer_user_us", (mean(&infer_us), n));
    out.insert("models.history_len_mean", (mean(&hist_len), n));
    out.insert("core.neighbors_us", (mean(&neigh_us), n));
    out.insert("core.neighbors_found", (mean(&neigh_n), n));
    out.insert("tier.search_us", (mean(&tier_us), tier_us.len()));
    out.insert("core.candidates_us", (mean(&cand_us), n));
    out.insert("core.candidates_per_rec", (mean(&cand_n), n));
    out.insert("core.fusion_us", (mean(&fuse_us), n));

    probe_proto(outcome, a_slate, out);
    probe_wal(outcome, scratch_dir, out)?;
    Ok((mean(&builds), recover_ms))
}

/// `Request`/`Response` codec cost and wire size for this workload's
/// two message kinds: a single recommend and an ingest batch.
fn probe_proto(outcome: &Outcome, a_slate: Option<RecResponse>, out: &mut Layers) {
    // Length + CRC in front of every payload; the WAL and the wire share
    // one framing.
    const FRAME_HEADER: usize = RECORD_FRAME_LEN - RECORD_PAYLOAD_LEN;
    let user = outcome.sample_users.first().copied().unwrap_or(0);
    let req = Request::Recommend {
        user,
        query: RecQuery::top(SLATE_K),
    };
    let req_bytes = req.encode();
    let resp = a_slate.map(Response::Slate).unwrap_or(Response::Pong);
    let resp_bytes = resp.encode();
    let per_call = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        for _ in 0..PROTO_PROBE_ROUNDS {
            f();
        }
        t.elapsed().as_secs_f64() * 1e9 / PROTO_PROBE_ROUNDS as f64
    };
    let n = PROTO_PROBE_ROUNDS;
    out.insert(
        "proto.req_encode_ns",
        (
            per_call(&mut || drop(std::hint::black_box(req.encode()))),
            n,
        ),
    );
    out.insert(
        "proto.req_decode_ns",
        (
            per_call(&mut || drop(std::hint::black_box(Request::decode(&req_bytes)))),
            n,
        ),
    );
    out.insert(
        "proto.resp_encode_ns",
        (
            per_call(&mut || drop(std::hint::black_box(resp.encode()))),
            n,
        ),
    );
    out.insert(
        "proto.resp_decode_ns",
        (
            per_call(&mut || drop(std::hint::black_box(Response::decode(&resp_bytes)))),
            n,
        ),
    );
    out.insert(
        "proto.bytes_per_rec",
        (
            (req_bytes.len() + resp_bytes.len() + 2 * FRAME_HEADER) as f64,
            1,
        ),
    );
    let batch: Vec<(u32, u32)> = if outcome.replay.len() >= INGEST_BATCH {
        outcome.replay[..INGEST_BATCH].to_vec()
    } else {
        (0..INGEST_BATCH as u32).map(|k| (k, k)).collect()
    };
    let ingest = Request::IngestBatch(batch).encode();
    out.insert(
        "proto.bytes_per_event",
        (
            (ingest.len() + FRAME_HEADER) as f64 / INGEST_BATCH as f64,
            INGEST_BATCH,
        ),
    );
}

/// `WalWriter` at the fleet's `fsync_every`, on a scratch file: the
/// buffered appends and the append that carries the fsync are timed
/// apart, then the file is scanned back.
fn probe_wal(outcome: &Outcome, scratch_dir: &Path, out: &mut Layers) -> Result<(), String> {
    std::fs::create_dir_all(scratch_dir).map_err(|e| e.to_string())?;
    let path = scratch_dir.join("wal-probe.log");
    let mut wal = WalWriter::create(&path, FSYNC_EVERY).map_err(|e| format!("wal probe: {e}"))?;
    let record = |seq: u64| {
        let (user, item) = if outcome.replay.is_empty() {
            (seq as u32 % 1_000, seq as u32 % 500)
        } else {
            outcome.replay[seq as usize % outcome.replay.len()]
        };
        WalRecord { seq, user, item }
    };
    let group = u64::from(FSYNC_EVERY);
    let groups = WAL_PROBE_RECORDS as u64 / group;
    let (mut append_ns, mut sync_us) = (Vec::new(), Vec::new());
    for g in 0..groups {
        let t = Instant::now();
        for k in 0..group - 1 {
            wal.append(record(g * group + k + 1))
                .map_err(|e| format!("wal probe append: {e}"))?;
        }
        append_ns.push(t.elapsed().as_secs_f64() * 1e9 / (group - 1) as f64);
        let t = Instant::now();
        wal.append(record((g + 1) * group))
            .map_err(|e| format!("wal probe sync: {e}"))?;
        sync_us.push(us(t));
    }
    drop(wal);
    out.insert(
        "wal.append_ns",
        (mean(&append_ns), (groups * (group - 1)) as usize),
    );
    out.insert("wal.sync_us", (mean(&sync_us), groups as usize));
    let t = Instant::now();
    let (records, _, _) = read_and_repair_wal(&path).map_err(|e| format!("wal probe scan: {e}"))?;
    let secs = t.elapsed().as_secs_f64();
    out.insert(
        "wal.replay_records_per_s",
        (records.len() as f64 / secs, records.len()),
    );
    Ok(())
}

/// The set-up steps, each timed where it ran.
pub fn from_setup(times: &SetupTimes, out: &mut Layers) {
    out.insert("world.train_s", (times.train_s, 1));
    out.insert("tier.export_ms", (times.tier_export_ms, 1));
    out.insert("tier.build_ms", (times.tier_build_ms, 1));
    out.insert("tier.encode_bytes", (times.tier_encode_bytes as f64, 1));
    out.insert("tier.install_ms", (times.tier_install_ms, 1));
}
