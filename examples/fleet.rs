//! Networked shard fleet smoke test: real processes, real sockets.
//!
//! This example is **dual-role**. Run with no arguments it is the
//! orchestrator: it trains one model, re-executes itself twice as
//! `serve-shard` processes (each hosting 2 of the 4 global shards with
//! its own WAL + checkpoint directory), connects a `FleetRouter` over
//! loopback TCP, streams events, kills one member with SIGKILL, lets
//! the supervisor's control loop restart it from its durability
//! directory, verifies recommendations survive the crash seam, and
//! shuts the fleet down gracefully. Run with `serve-shard ...` argv it
//! plays the shard-server role (that is what the re-exec invokes).
//!
//! ```sh
//! cargo run --release --example fleet
//! ```

use sccf::net::{FleetRouter, Supervisor, WorldSpec};
use sccf::serving::{RecQuery, ServingApi};

const PROCS: usize = 2;
const PER_PROC: usize = 2;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("serve-shard") {
        // Child role: host one window of the shard space and serve.
        if let Err(e) = sccf::net::serve_shard_main(&args[1..]) {
            eprintln!("serve-shard error: {e}");
            std::process::exit(1);
        }
        return;
    }
    orchestrate().unwrap_or_else(|e| {
        eprintln!("fleet example failed: {e}");
        std::process::exit(1);
    });
}

fn orchestrate() -> Result<(), String> {
    let spec = WorldSpec {
        n_users: 80,
        n_items: 48,
        ..WorldSpec::default()
    };
    let total = PROCS * PER_PROC;
    let root = std::env::temp_dir().join(format!("sccf-fleet-example-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).map_err(|e| e.to_string())?;

    // --- one trained model, shared by file ----------------------------
    println!("training the shared model ({} users)…", spec.n_users);
    let model_path = root.join("model.fism");
    std::fs::write(&model_path, spec.train_model()).map_err(|e| e.to_string())?;

    // --- launch 2 real shard-server processes -------------------------
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut sup =
        Supervisor::launch_uniform(&exe, PROCS, PER_PROC, 0, &spec, &model_path, Some(&root))?;
    println!(
        "fleet up: {PROCS} processes × {PER_PROC} shards on ports {:?}",
        (0..PROCS).map(|p| sup.port(p)).collect::<Vec<_>>()
    );

    // --- connect the router and stream events -------------------------
    let mut router = FleetRouter::connect(sup.topology()?).map_err(|e| e.to_string())?;

    let n_users = spec.n_users as u32;
    let n_items = spec.n_items as u32;
    let events: Vec<(u32, u32)> = (0u32..300)
        .map(|k| {
            (
                k.wrapping_mul(131) % n_users,
                (k.wrapping_mul(7919) + 13) % n_items,
            )
        })
        .collect();
    router.ingest_batch(&events).map_err(|e| e.to_string())?;
    router.flush().map_err(|e| e.to_string())?;
    let probe: Vec<u32> = (0..n_users).step_by(9).collect();
    let before = router
        .recommend_many(&probe, &RecQuery::top(5))
        .map_err(|e| e.to_string())?;
    println!(
        "ingested {} events; user {} sees {:?}",
        events.len(),
        probe[0],
        before[0].ids()
    );

    // --- crash one member, supervise it back --------------------------
    router.checkpoint_all().map_err(|e| e.to_string())?;
    router.wal_sync_all().map_err(|e| e.to_string())?;
    println!("killing member 1 (SIGKILL)…");
    sup.kill(1)?;
    let restarted = sup.check_and_restart()?;
    assert_eq!(
        restarted,
        vec![1],
        "the control loop restarts the dead member"
    );
    router
        .reconnect(1, &sup.addr(1))
        .map_err(|e| e.to_string())?;
    let after = router
        .recommend_many(&probe, &RecQuery::top(5))
        .map_err(|e| e.to_string())?;
    let same = |a: &sccf::serving::RecResponse, b: &sccf::serving::RecResponse| {
        let bits = |r: &sccf::serving::RecResponse| -> Vec<(u32, u32)> {
            r.items.iter().map(|s| (s.id, s.score.to_bits())).collect()
        };
        bits(a) == bits(b)
    };
    assert!(
        before.iter().zip(&after).all(|(a, b)| same(a, b)),
        "slates must be bit-identical across the crash + recovery seam"
    );
    println!(
        "restarted from WAL + checkpoints: all {} probe slates bit-identical",
        probe.len()
    );

    // --- the stream continues across the seam -------------------------
    let more: Vec<(u32, u32)> = (300u32..400)
        .map(|k| {
            (
                k.wrapping_mul(131) % n_users,
                (k.wrapping_mul(7919) + 13) % n_items,
            )
        })
        .collect();
    router.ingest_batch(&more).map_err(|e| e.to_string())?;
    router.flush().map_err(|e| e.to_string())?;
    let stats = router.serving_stats().map_err(|e| e.to_string())?;
    println!(
        "final stats: {} shard reports, durable={}",
        stats.shards.len(),
        stats.durability.enabled
    );
    assert_eq!(stats.shards.len(), total);

    router.shutdown_all().map_err(|e| e.to_string())?;
    sup.shutdown();
    let _ = std::fs::remove_dir_all(&root);
    println!("fleet shut down cleanly");
    Ok(())
}
