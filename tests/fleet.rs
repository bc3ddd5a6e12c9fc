//! The networked fleet's headline contract, pinned: a multi-process
//! fleet over loopback TCP is **bit-identical** to a single-process
//! `ShardedEngine` with the same total shard count fed the same event
//! stream — snapshot bytes and slate float bits — including across a
//! supervised kill-and-restart of one member.
//!
//! The processes are the real `sccf` binary (`CARGO_BIN_EXE_sccf`)
//! running `serve-shard`; nothing here is mocked. Determinism comes
//! from the shared [`WorldSpec`] recipe plus a trained-model file every
//! process rehydrates, so the only degrees of freedom left are the ones
//! the wire protocol and the durability layer must preserve.

use std::path::{Path, PathBuf};

use sccf::net::{
    Connection, FleetRouter, Request, Response, ServeShardArgs, ShardSpec, Supervisor, WorldSpec,
};
use sccf::serving::fleet::{FleetMember, FleetTopology};
use sccf::serving::{RecQuery, RouterKind, ServingApi, ServingError, ShardedConfig, ShardedEngine};

const TOTAL_SHARDS: usize = 4;
const PROCS: usize = 2;
const PER_PROC: usize = TOTAL_SHARDS / PROCS;

fn spec() -> WorldSpec {
    WorldSpec {
        n_users: 48,
        n_items: 32,
        seed: 2026,
        epochs: 2,
        ..WorldSpec::default()
    }
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sccf_fleet_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// The same deterministic stream `tests/durability.rs` uses.
fn event_at(spec: &WorldSpec, k: u64) -> (u32, u32) {
    (
        (k as u32).wrapping_mul(131) % spec.n_users as u32,
        (k as u32).wrapping_mul(7919).wrapping_add(13) % spec.n_items as u32,
    )
}

/// Launch `PROCS` real `sccf serve-shard` processes over the model
/// file, each owning `PER_PROC` shards of the global space, each with
/// its own durability directory under `root`.
fn launch_fleet(spec: &WorldSpec, root: &Path, model: &Path) -> Supervisor {
    let exe = PathBuf::from(env!("CARGO_BIN_EXE_sccf"));
    let specs = (0..PROCS)
        .map(|p| {
            let args = ServeShardArgs {
                base: p * PER_PROC,
                count: PER_PROC,
                total: TOTAL_SHARDS,
                vnodes: 0,
                dir: Some(root.join(format!("member-{p}"))),
                world: spec.clone(),
                model_file: Some(model.to_path_buf()),
                ..ServeShardArgs::default()
            };
            let mut argv = vec!["serve-shard".to_string()];
            argv.extend(args.to_args());
            ShardSpec::new(exe.clone(), argv)
        })
        .collect();
    Supervisor::launch(specs).expect("fleet launches")
}

fn connect_router(sup: &Supervisor) -> FleetRouter {
    let members = (0..PROCS)
        .map(|p| FleetMember {
            base: p * PER_PROC,
            count: PER_PROC,
            addr: sup.addr(p),
        })
        .collect();
    let topology = FleetTopology::try_new(TOTAL_SHARDS, 0, members).expect("valid tiling");
    FleetRouter::connect(topology).expect("fleet handshake")
}

/// Bit-level equality: whole-population snapshot bytes plus id +
/// score-bit slates for every user, fleet vs baseline.
fn assert_fleet_matches_baseline(
    spec: &WorldSpec,
    router: &mut FleetRouter,
    baseline: &mut ShardedEngine<sccf::models::Fism>,
    context: &str,
) {
    let fleet_snap = router.snapshot_state().expect("fleet snapshot");
    let base_snap = baseline.snapshot_state().expect("baseline snapshot");
    assert!(
        fleet_snap == base_snap,
        "{context}: snapshot bytes diverge ({} vs {} bytes)",
        fleet_snap.len(),
        base_snap.len()
    );
    let users: Vec<u32> = (0..spec.n_users as u32).collect();
    let slates = router
        .recommend_many(&users, &RecQuery::top(5))
        .expect("fleet slates");
    for (&u, slate) in users.iter().zip(&slates) {
        let rb = baseline
            .try_recommend(u, &RecQuery::top(5))
            .expect("valid user");
        let fleet_bits: Vec<(u32, u32)> = slate
            .items
            .iter()
            .map(|s| (s.id, s.score.to_bits()))
            .collect();
        let base_bits: Vec<(u32, u32)> =
            rb.items.iter().map(|s| (s.id, s.score.to_bits())).collect();
        assert_eq!(fleet_bits, base_bits, "{context}: user {u} slate diverges");
    }
}

#[test]
fn fleet_matches_single_process_bit_for_bit_across_kill_and_restart() {
    let spec = spec();
    let root = scratch_dir("equiv");
    let model_path = root.join("model.fism");
    std::fs::write(&model_path, spec.train_model()).expect("write model");

    let mut sup = launch_fleet(&spec, &root, &model_path);
    let mut router = connect_router(&sup);

    // The reference: all four shards in this process, same world, same
    // modulo ring the fleet's slice engines share (vnodes = 0).
    let world = spec
        .build(Some(&std::fs::read(&model_path).unwrap()))
        .unwrap();
    let mut baseline = ShardedEngine::try_new(
        world.sccf,
        world.histories,
        ShardedConfig {
            n_shards: TOTAL_SHARDS,
            queue_capacity: 64,
            router: RouterKind::Modulo,
        },
    )
    .expect("baseline fleet");

    let stream =
        |lo: u64, hi: u64| -> Vec<(u32, u32)> { (lo..hi).map(|k| event_at(&spec, k)).collect() };

    // Phase 1: both sides ingest the same prefix.
    let phase1 = stream(0, 300);
    assert_eq!(router.ingest_batch(&phase1).expect("fleet ingest"), 300);
    assert_eq!(
        baseline.ingest_batch(&phase1).expect("baseline ingest"),
        300
    );
    router.flush().expect("fleet flush");
    baseline.flush().expect("baseline flush");
    assert_fleet_matches_baseline(&spec, &mut router, &mut baseline, "after phase 1");
    let stats = router.serving_stats().expect("fleet stats");
    assert_eq!(stats.events, 300, "merged stats count the whole stream");
    assert!(stats.durability.enabled);
    // Regression: the merged view used to drop every member's router
    // pressure (all zeros however many sends were made).
    assert!(
        stats.pressure.sends >= 300,
        "merged pressure counts the members' sends (got {})",
        stats.pressure.sends
    );
    // Per-stage percentiles merge exactly: the router's merged `infer`
    // recorder equals the merge of what each member reports over its
    // own connection — same count, quantiles bit-equal.
    let mut by_member = sccf::util::TimingStats::new();
    for m in 0..PROCS {
        by_member.merge(&member_stats(&sup, m).timings.infer);
    }
    assert_eq!(stats.timings.infer.count(), by_member.count());
    for q in [0.5, 0.95, 0.99, 1.0] {
        assert_eq!(
            stats.timings.infer.quantile_ms(q).to_bits(),
            by_member.quantile_ms(q).to_bits(),
            "infer q{q}"
        );
    }

    // Checkpoint, then keep writing past it so recovery must replay a
    // WAL tail on top of the checkpoint chain.
    let epochs = router.checkpoint_all().expect("fleet checkpoint");
    assert_eq!(epochs.len(), PROCS);
    let phase2 = stream(300, 450);
    router.ingest_batch(&phase2).expect("fleet ingest");
    baseline.ingest_batch(&phase2).expect("baseline ingest");
    router.flush().expect("fleet flush");
    // Every acknowledged event must be on disk before the crash; the
    // wire ACK alone only proves the shard applied it in memory.
    router.wal_sync_all().expect("fleet wal_sync");

    // Crash member 1 (SIGKILL — no flush, no goodbye), supervise it
    // back up, and re-point the router at the replacement.
    sup.kill(1).expect("kill member 1");
    let restarted = sup.check_and_restart().expect("control loop tick");
    assert_eq!(restarted, vec![1], "only the killed member restarts");
    router.reconnect(1, &sup.addr(1)).expect("reconnect");
    assert_fleet_matches_baseline(&spec, &mut router, &mut baseline, "after restart");

    // Phase 3: the stream continues across the restart seam.
    let phase3 = stream(450, 600);
    router.ingest_batch(&phase3).expect("fleet ingest");
    baseline.ingest_batch(&phase3).expect("baseline ingest");
    router.flush().expect("fleet flush");
    assert_fleet_matches_baseline(&spec, &mut router, &mut baseline, "after phase 3");

    // Operational counters are process-local and intentionally not
    // durable: the restarted member counts from its recovery onwards,
    // so the merged total covers the surviving member's whole stream
    // plus the replacement's post-restart share — less than 600, but
    // every shard still reports.
    let stats = router.serving_stats().expect("fleet stats");
    assert!(
        stats.events < 600 && stats.events >= 150,
        "restart resets the crashed member's counters (got {})",
        stats.events
    );
    assert_eq!(
        stats.shards.len(),
        TOTAL_SHARDS,
        "every shard reports after merge"
    );
    assert!(stats.durability.enabled);

    router.shutdown_all().expect("graceful shutdown");
    sup.shutdown();
    baseline.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// The pipelined-ingest pin: multi-batch ingest (several requests in
/// flight per connection) lands bit-identically — snapshot bytes and
/// slate float bits — to the single-process baseline fed the same
/// concatenated stream. The stream revisits every user across many
/// small batches, so this is also the per-user FIFO ordering pin under
/// pipelining — one reordered event would move that user's history ring
/// and change the bits.
#[test]
fn pipelined_ingest_matches_the_single_process_baseline_bit_for_bit() {
    let spec = spec();
    let root = scratch_dir("pipeline");
    let model_path = root.join("model.fism");
    std::fs::write(&model_path, spec.train_model()).expect("write model");

    let sup = launch_fleet(&spec, &root, &model_path);
    let mut router = connect_router(&sup);

    let world = spec
        .build(Some(&std::fs::read(&model_path).unwrap()))
        .unwrap();
    let mut baseline = ShardedEngine::try_new(
        world.sccf,
        world.histories,
        ShardedConfig {
            n_shards: TOTAL_SHARDS,
            queue_capacity: 64,
            router: RouterKind::Modulo,
        },
    )
    .expect("baseline fleet");

    // 40 batches × 15 events: every user appears in many different
    // batches, so pipelining keeps several of each user's events in
    // flight at once.
    let batches: Vec<Vec<(u32, u32)>> = (0..40)
        .map(|b| (0..15).map(|i| event_at(&spec, b * 15 + i)).collect())
        .collect();
    let flat: Vec<(u32, u32)> = batches.iter().flatten().copied().collect();
    let total = router.ingest_batches(&batches).expect("pipelined ingest");
    assert_eq!(total, flat.len() as u64, "every event acknowledged");
    assert_eq!(router.in_flight(), 0, "collect drained the pipeline");
    assert_eq!(
        baseline.ingest_batch(&flat).expect("baseline ingest"),
        flat.len() as u64
    );
    router.flush().expect("fleet flush");
    baseline.flush().expect("baseline flush");
    assert_fleet_matches_baseline(&spec, &mut router, &mut baseline, "after pipelined stream");

    router.shutdown_all().expect("graceful shutdown");
    sup.shutdown();
    baseline.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// The read-ahead pin: a frame that lands while the member's engine is
/// busy with an earlier one waits in the read-ahead queue, and the
/// member counts the hit. One write carries a heavy request — a
/// `RecommendMany` over every user the member owns, many times over —
/// followed by a `Ping`, so the `Ping` is on the member's socket before
/// the engine has started the slates. No race with the engine's speed
/// decides the outcome (a pipelined ingest stream alone lands frames in
/// the queue only when the engine is slower than the next frame).
#[test]
fn a_frame_that_lands_while_the_member_is_busy_is_a_read_ahead_hit() {
    use sccf::util::framing::{read_frame, write_frame};
    use std::io::Write;

    let spec = spec();
    let root = scratch_dir("read_ahead");
    let model_path = root.join("model.fism");
    std::fs::write(&model_path, spec.train_model()).expect("write model");
    let sup = launch_fleet(&spec, &root, &model_path);

    // Member 0's users: the ones it serves a slate for.
    let mut direct = Connection::connect(sup.addr(0).as_str()).expect("dial member");
    let owned: Vec<u32> = (0..spec.n_users as u32)
        .filter(|&user| {
            let req = Request::Recommend {
                user,
                query: RecQuery::top(8),
            };
            matches!(direct.request(&req), Ok(Response::Slate(_)))
        })
        .collect();
    assert!(!owned.is_empty(), "member 0 owns users");
    let before = member_stats(&sup, 0).transport;
    assert_eq!(before.read_ahead_capacity, 4, "default capacity");

    let heavy = Request::RecommendMany {
        users: owned.repeat(32),
        query: RecQuery::top(8),
    };
    let mut bytes = Vec::new();
    write_frame(&mut bytes, &heavy.encode()).expect("frame heavy request");
    write_frame(&mut bytes, &Request::Ping.encode()).expect("frame ping");
    let mut stream = std::net::TcpStream::connect(sup.addr(0)).expect("dial member");
    stream.write_all(&bytes).expect("one write, two frames");
    let mut payload = Vec::new();
    for expected in ["Slates", "Pong"] {
        read_frame(&mut stream, &mut payload)
            .expect("read response")
            .expect("member answers both frames");
        let resp = Response::decode(&payload).expect("decode response");
        match (expected, resp) {
            ("Slates", Response::Slates(slates)) => {
                assert_eq!(slates.len(), owned.len() * 32, "one slate per user asked");
            }
            ("Pong", Response::Pong) => {}
            (_, other) => panic!("expected {expected}, got {other:?}"),
        }
    }

    let after = member_stats(&sup, 0).transport;
    assert!(
        after.requests >= before.requests + 2,
        "transport counters cross the wire (before {}, after {})",
        before.requests,
        after.requests
    );
    assert!(
        after.read_ahead_hits > before.read_ahead_hits,
        "the Ping waited in the read-ahead queue while the member served \
         the slates (requests {}, hits {} -> {})",
        after.requests,
        before.read_ahead_hits,
        after.read_ahead_hits
    );

    drop(stream);
    drop(direct);
    let router = connect_router(&sup);
    router.shutdown_all().expect("graceful shutdown");
    sup.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// Regression (reconnect-while-in-flight): replacing a member's
/// connection while responses are owed must fail the pending collect
/// with a typed `ServingError::Wire` — never hang on a socket that no
/// longer exists — and the router must be usable again afterwards.
#[test]
fn reconnect_while_in_flight_fails_pending_recvs_typed() {
    let spec = spec();
    let root = scratch_dir("reconnect");
    let model_path = root.join("model.fism");
    std::fs::write(&model_path, spec.train_model()).expect("write model");

    let sup = launch_fleet(&spec, &root, &model_path);
    let mut router = connect_router(&sup);

    // Queue a batch touching every member without collecting the acks.
    let batch: Vec<(u32, u32)> = (0..60).map(|k| event_at(&spec, k)).collect();
    router.ingest_send(&batch).expect("pipelined send");
    assert!(router.in_flight() > 0, "acks are outstanding");

    // Re-point member 0 at the same (still running) process: the old
    // connection and the responses it is owed are abandoned.
    router.reconnect(0, &sup.addr(0)).expect("reconnect");
    match router.ingest_collect() {
        Err(ServingError::Wire(msg)) => {
            assert!(
                msg.contains("lost to reconnect"),
                "error should name the cause, got: {msg}"
            );
        }
        other => panic!("expected a typed Wire error for lost responses, got {other:?}"),
    }

    // The loss is reported exactly once; afterwards the wire is clean.
    assert_eq!(router.in_flight(), 0);
    let more: Vec<(u32, u32)> = (60..120).map(|k| event_at(&spec, k)).collect();
    assert_eq!(
        router.ingest_batch(&more).expect("router recovered"),
        more.len() as u64
    );
    router.flush().expect("flush after recovery");

    router.shutdown_all().expect("graceful shutdown");
    sup.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// Regression (best-effort control plane): a dead member must not
/// shield the live ones from control fan-outs. With member 0 killed,
/// `flush` reports the failure, and `shutdown_all` still delivers the
/// shutdown to member 1 — the old first-error-returns behavior left
/// member 1 running as a leaked process.
#[test]
fn control_fanouts_reach_all_members_past_a_dead_one() {
    let spec = spec();
    let root = scratch_dir("besteffort");
    let model_path = root.join("model.fism");
    std::fs::write(&model_path, spec.train_model()).expect("write model");

    let mut sup = launch_fleet(&spec, &root, &model_path);
    let mut router = connect_router(&sup);

    sup.kill(0).expect("kill member 0");
    assert!(router.flush().is_err(), "flush must report the dead member");
    // Member 0's connection is poisoned now; shutdown is still
    // delivered to member 1 and the combined error names the failure.
    assert!(router.shutdown_all().is_err(), "member 0 cannot ack");

    // Member 1 actually received the shutdown and exited: its port
    // stops answering pings (each ping is a fresh connect, so this is
    // the process, not a stale socket).
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    let mut gone = false;
    while std::time::Instant::now() < deadline && !gone {
        gone = !sup.ping(1);
        if !gone {
            std::thread::sleep(std::time::Duration::from_millis(100));
        }
    }
    assert!(
        gone,
        "member 1 should have exited on the best-effort shutdown"
    );

    sup.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn remote_errors_and_routing_guards_cross_the_wire() {
    use sccf::core::{FrozenTierMode, GlobalNeighborSnapshot};
    let spec = spec();
    let root = scratch_dir("errors");
    let model_path = root.join("model.fism");
    std::fs::write(&model_path, spec.train_model()).expect("write model");

    let sup = launch_fleet(&spec, &root, &model_path);
    let mut router = connect_router(&sup);

    // Local validation: out-of-range ids fail before any bytes move.
    let n_users = spec.n_users as u32;
    let n_items = spec.n_items as u32;
    assert!(matches!(
        router.try_recommend(n_users, &RecQuery::top(5)),
        Err(ServingError::UnknownUser { .. })
    ));
    // A batch with one bad event is rejected whole: fleet state must
    // be untouched even though the batch spans members.
    let before = router.snapshot_state().expect("snapshot");
    let bad = vec![(0, 0), (1, n_items), (2, 1)];
    assert!(matches!(
        router.ingest_batch(&bad),
        Err(ServingError::UnknownItem { .. })
    ));
    let after = router.snapshot_state().expect("snapshot");
    assert!(before == after, "rejected batch must not move the fleet");

    // Remote errors survive the wire as typed variants: dial member 0
    // directly and ask it for a user it does not own.
    let mut direct = Connection::connect(sup.addr(0).as_str()).expect("dial member 0");
    let foreign = (0..n_users)
        .find(|&u| router.owner_of(u) != 0)
        .expect("some user lives on member 1");
    match direct
        .request(&Request::Recommend {
            user: foreign,
            query: RecQuery::top(5),
        })
        .expect("transport ok")
    {
        Response::Err(ServingError::NotOwned { user }) => assert_eq!(user, foreign),
        other => panic!("expected NotOwned over the wire, got {other:?}"),
    }
    // A v2 peer (no latency buckets in its stats) is refused at the
    // handshake, typed, and the connection keeps serving.
    match direct
        .request(&Request::Hello { protocol: 2 })
        .expect("transport ok")
    {
        Response::Err(ServingError::Wire(msg)) => {
            assert!(msg.contains("client speaks protocol 2"), "{msg}")
        }
        other => panic!("expected a version refusal, got {other:?}"),
    }

    // A decodable tier artifact whose accel section names users the
    // frozen index beside it does not have (the flat body of this
    // population with the `SCCFAC01` section of a larger one spliced
    // on). The member used to install it and panic a worker on the
    // next slate; it must answer a typed error and keep serving.
    let entries =
        |n: usize| (0..n as u32).map(|u| (u, vec![1.0 + u as f32; spec.dim], vec![u % 3]));
    let flat = GlobalNeighborSnapshot::build(1, spec.n_users, spec.dim, entries(spec.n_users));
    let mode = FrozenTierMode::Hnsw { ef: 4 };
    let bigger = spec.n_users + 5;
    let hnsw =
        GlobalNeighborSnapshot::build_with_mode(1, bigger, spec.dim, mode, 77, entries(bigger))
            .encode();
    let section = hnsw
        .windows(8)
        .position(|w| w == b"SCCFAC01")
        .expect("accel section");
    let mut spliced = flat.encode();
    spliced.truncate(spliced.len() - 8); // the flat artifact's empty accel section
    spliced.extend_from_slice(&hnsw[section - 8..]);
    match direct
        .request(&Request::InstallTier(spliced))
        .expect("transport ok")
    {
        Response::Err(ServingError::InvalidConfig(msg)) => {
            assert!(msg.contains("accel ids vs frozen index"), "{msg}")
        }
        other => panic!("expected a typed decode rejection, got {other:?}"),
    }
    let owned = (0..n_users)
        .find(|&u| router.owner_of(u) == 0)
        .expect("some user lives on member 0");
    match direct
        .request(&Request::Recommend {
            user: owned,
            query: RecQuery::top(5),
        })
        .expect("transport ok")
    {
        Response::Slate(_) => {}
        other => panic!("member 0 must still serve after the rejection, got {other:?}"),
    }

    router.shutdown_all().expect("graceful shutdown");
    sup.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// One member's own `ServingStats`, over a fresh direct connection.
fn member_stats(sup: &Supervisor, member: usize) -> sccf::serving::ServingStats {
    let mut direct = Connection::connect(sup.addr(member).as_str()).expect("dial member");
    match direct.call(&Request::Stats).expect("member stats") {
        Response::Stats(stats) => *stats,
        other => panic!("expected Stats, got {other:?}"),
    }
}

/// What replaced the readiness loop, part 1: a message far larger than
/// a loopback socket buffer goes out as one blocking write per member
/// and still completes — each member's reader thread drains its socket
/// independently of its engine, so the router is never stuck writing to
/// member 0 while member 1 waits to be written to. The tier lands on
/// both members and serves bit-identically to the in-process engine
/// given the same artifact.
#[test]
fn multi_mib_tier_install_completes_through_blocking_writes() {
    use sccf::core::{decode_user_state, FrozenTierMode, GlobalNeighborSnapshot, TIER_BUILD_SEED};

    let spec = spec();
    let root = scratch_dir("bigtier");
    let model_path = root.join("model.fism");
    std::fs::write(&model_path, spec.train_model()).expect("write model");

    let sup = launch_fleet(&spec, &root, &model_path);
    let mut router = connect_router(&sup);
    let world = spec
        .build(Some(&std::fs::read(&model_path).unwrap()))
        .unwrap();
    let mut baseline = ShardedEngine::try_new(
        world.sccf,
        world.histories,
        ShardedConfig {
            n_shards: TOTAL_SHARDS,
            queue_capacity: 64,
            router: RouterKind::Modulo,
        },
    )
    .expect("baseline fleet");

    let events: Vec<(u32, u32)> = (0..200).map(|k| event_at(&spec, k)).collect();
    router.ingest_batch(&events).expect("fleet ingest");
    baseline.ingest_batch(&events).expect("baseline ingest");
    router.flush().expect("fleet flush");
    baseline.flush().expect("baseline flush");

    // A real tier over the fleet's own user states, with every frozen
    // window padded (the history, cycled) until the artifact is ~12 MiB:
    // above what loopback send + receive buffers hold between them,
    // below the 16 MiB frame limit.
    const WINDOW: usize = 65_000;
    let users: Vec<u32> = (0..spec.n_users as u32).collect();
    let blobs = router.export_user_states(&users).expect("export");
    let entries: Vec<(u32, Vec<f32>, Vec<u32>)> = blobs
        .iter()
        .map(|blob| {
            let (user, rep, history) = decode_user_state(blob).expect("own blob decodes");
            let window = history.iter().copied().cycle().take(WINDOW).collect();
            (user, rep, window)
        })
        .collect();
    let tier = GlobalNeighborSnapshot::build_with_mode(
        1,
        spec.n_users,
        spec.dim,
        FrozenTierMode::Flat,
        TIER_BUILD_SEED,
        entries,
    )
    .encode();
    assert!(
        tier.len() > 8 << 20,
        "the artifact must dwarf a socket buffer (got {} bytes)",
        tier.len()
    );

    router.install_tier_bytes(&tier).expect("large install");
    for member in 0..PROCS {
        let hood = member_stats(&sup, member).neighborhood;
        assert!(
            hood.two_tier && hood.epoch == 1,
            "member {member} must serve the new tier (two_tier={}, epoch={})",
            hood.two_tier,
            hood.epoch
        );
    }
    baseline
        .install_global_tier(GlobalNeighborSnapshot::decode(&tier).expect("decodes"))
        .expect("baseline install");
    assert_fleet_matches_baseline(&spec, &mut router, &mut baseline, "after the large install");

    router.shutdown_all().expect("graceful shutdown");
    sup.shutdown();
    baseline.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// What replaced the readiness loop, part 2: the data plane's strict
/// pre-check survived the merge of the two fan-out primitives. With
/// member 0 dead and its connection poisoned, a batch spanning both
/// members is refused typed *before anything is sent* — member 1 must
/// not apply its share of a batch the router already knows it cannot
/// deliver whole.
#[test]
fn ingest_spanning_a_poisoned_member_sends_nothing() {
    let spec = spec();
    let root = scratch_dir("strict");
    let model_path = root.join("model.fism");
    std::fs::write(&model_path, spec.train_model()).expect("write model");

    let mut sup = launch_fleet(&spec, &root, &model_path);
    let mut router = connect_router(&sup);

    sup.kill(0).expect("kill member 0");
    // A control fan-out discovers the death and poisons connection 0.
    assert!(router.flush().is_err(), "flush must report the dead member");

    let batch: Vec<(u32, u32)> = (0..60).map(|k| event_at(&spec, k)).collect();
    for member in 0..PROCS {
        assert!(
            batch.iter().any(|&(u, _)| router.owner_of(u) == member),
            "the batch must span member {member}"
        );
    }
    let before = member_stats(&sup, 1).events;
    match router.ingest_batch(&batch) {
        Err(ServingError::Wire(msg)) => {
            assert!(
                msg.contains("member 0") && msg.contains("poisoned"),
                "error should name the dead member, got: {msg}"
            );
        }
        other => panic!("expected a typed Wire error, got {other:?}"),
    }
    assert_eq!(
        member_stats(&sup, 1).events,
        before,
        "member 1 must not have applied part of a refused batch"
    );

    sup.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// Regression (frame atomicity): a batch whose share for one member is
/// too large for one frame is refused typed and applied on *no* member,
/// through both ingest entry points. The router used to queue member
/// by member, so the members before the oversized share were sent their
/// part and applied it while the call returned an error.
#[test]
fn a_batch_that_cannot_be_framed_is_applied_on_no_member() {
    use sccf::util::framing::MAX_FRAME_LEN;

    let spec = spec();
    let root = scratch_dir("framing");
    let model_path = root.join("model.fism");
    std::fs::write(&model_path, spec.train_model()).expect("write model");

    let sup = launch_fleet(&spec, &root, &model_path);
    let mut router = connect_router(&sup);
    let owned_by = |m: usize| {
        (0..spec.n_users as u32)
            .find(|&u| router.owner_of(u) == m)
            .expect("every member owns a user")
    };
    // One event for member 0, then member 1's share: 8 wire bytes per
    // event, one frame's worth and more.
    let mut batch = vec![(owned_by(0), 0)];
    batch.resize(1 + MAX_FRAME_LEN / 8 + 1, (owned_by(1), 1));

    let refused = |result: Result<u64, ServingError>, entry: &str| match result {
        Err(ServingError::Wire(msg)) => {
            assert!(
                msg.contains("frame limit"),
                "{entry}: names the limit: {msg}"
            )
        }
        other => panic!("{entry}: expected a typed Wire error, got {other:?}"),
    };
    refused(router.ingest_batch(&batch), "ingest_batch");
    assert_eq!(
        router.serving_stats().expect("stats").events,
        0,
        "ingest_batch applied part"
    );
    refused(router.ingest_batches(&[batch]), "ingest_batches");
    assert_eq!(
        router.serving_stats().expect("stats").events,
        0,
        "ingest_batches applied part"
    );

    // Nothing is owed and nothing is poisoned: the next batch goes through.
    assert_eq!(router.in_flight(), 0);
    let ok: Vec<(u32, u32)> = (0..60).map(|k| event_at(&spec, k)).collect();
    assert_eq!(router.ingest_batch(&ok).expect("router still serves"), 60);
    assert_eq!(router.serving_stats().expect("stats").events, 60);

    router.shutdown_all().expect("graceful shutdown");
    sup.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}
