//! The fleet control loop: spawn shard-server processes, health-check
//! them over the protocol, and restart crashed members from their
//! durability directories.
//!
//! A [`Supervisor`] owns the child processes of a fleet. Each child is
//! launched from a [`ShardSpec`] with `--port 0` appended — the OS
//! assigns an ephemeral port, the child announces it on stdout as a
//! `LISTENING {port}` line, and the supervisor parses that line before
//! declaring the child up. Restarting into a fresh ephemeral port (and
//! telling the router to [`reconnect`](crate::FleetRouter::reconnect))
//! sidesteps the listen-socket reuse races a fixed port would invite.
//!
//! Recovery is delegated entirely to the durability layer: a respawned
//! child finds checkpoints in its `--dir` and replays its newest
//! checkpoint chain plus the WAL tail before accepting connections, so
//! from the supervisor's side "restart" is just "spawn again".
//!
//! [`route_main`] is the `sccf route` entry point — a self-contained
//! fleet demo that trains one model, launches the fleet, drives a
//! deterministic event stream through a [`FleetRouter`], and shuts
//! everything down.

use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use sccf_serving::api::{RecQuery, ServingApi};
use sccf_serving::fleet::{FleetMember, FleetTopology};
use sccf_util::Flags;

use crate::client::Connection;
use crate::proto::{Request, Response};
use crate::router::FleetRouter;
use crate::server::ServeShardArgs;
use crate::world::WorldSpec;

/// How to (re)launch one shard-server process. `args` is the full
/// argument vector including the `serve-shard` subcommand word but
/// **excluding** `--port`, which the supervisor always appends as `0`.
#[derive(Debug, Clone)]
pub struct ShardSpec {
    pub exe: PathBuf,
    pub args: Vec<String>,
}

impl ShardSpec {
    pub fn new(exe: PathBuf, args: Vec<String>) -> Self {
        Self { exe, args }
    }
}

/// Spawn one shard server and wait for its `LISTENING {port}`
/// announcement. Returns the child and the port it bound.
pub fn spawn_shard(spec: &ShardSpec) -> Result<(Child, u16), String> {
    let mut child = Command::new(&spec.exe)
        .args(&spec.args)
        .args(["--port", "0"])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawning {:?}: {e}", spec.exe))?;
    let stdout = child.stdout.take().expect("stdout was piped");
    let mut reader = BufReader::new(stdout);
    let port = loop {
        let mut line = String::new();
        let n = reader
            .read_line(&mut line)
            .map_err(|e| format!("reading shard-server stdout: {e}"))?;
        if n == 0 {
            let status = child.wait().map_err(|e| e.to_string())?;
            return Err(format!(
                "shard server exited ({status}) before announcing a port"
            ));
        }
        if let Some(rest) = line.trim().strip_prefix("LISTENING ") {
            break rest
                .parse::<u16>()
                .map_err(|_| format!("bad LISTENING line from shard server: {line:?}"))?;
        }
    };
    // Keep draining stdout so the child never blocks on a full pipe.
    std::thread::spawn(move || {
        let _ = std::io::copy(&mut reader, &mut std::io::sink());
    });
    Ok((child, port))
}

struct Supervised {
    spec: ShardSpec,
    child: Child,
    port: u16,
}

/// Owns a fleet's child processes; see the module docs.
pub struct Supervisor {
    shards: Vec<Supervised>,
    ping_timeout: Duration,
}

impl Supervisor {
    /// Launch every spec. If any child dies before announcing its
    /// port, the error propagates and the supervisor's `Drop` kills
    /// whatever was already launched.
    pub fn launch(specs: Vec<ShardSpec>) -> Result<Self, String> {
        let mut sup = Self {
            shards: Vec::with_capacity(specs.len()),
            ping_timeout: Duration::from_secs(10),
        };
        for spec in specs {
            let (child, port) = spawn_shard(&spec)?;
            sup.shards.push(Supervised { spec, child, port });
        }
        Ok(sup)
    }

    /// Launch the uniform fleet every demo, example and bench runs:
    /// `procs` members re-executing `exe` as `serve-shard`, member `p`
    /// hosting shards `[p·per, (p+1)·per)` of a `procs·per`-shard ring
    /// with `vnodes` virtual nodes (0 = modulo), all rebuilding `world`
    /// around the trained `model` file. With a `root`, member `p` is
    /// durable in `root/member-{p}`; without, the fleet is in-memory.
    pub fn launch_uniform(
        exe: &Path,
        procs: usize,
        per: usize,
        vnodes: usize,
        world: &WorldSpec,
        model: &Path,
        root: Option<&Path>,
    ) -> Result<Self, String> {
        let specs = (0..procs).map(|p| {
            let args = ServeShardArgs {
                base: p * per,
                count: per,
                total: procs * per,
                vnodes,
                dir: root.map(|r| r.join(format!("member-{p}"))),
                world: world.clone(),
                model_file: Some(model.to_path_buf()),
                ..ServeShardArgs::default()
            };
            let mut argv = vec!["serve-shard".to_string()];
            argv.extend(args.to_args());
            ShardSpec::new(exe.to_path_buf(), argv)
        });
        Self::launch(specs.collect())
    }

    /// The topology a router dials to reach this fleet as it runs now:
    /// each member's window and the ring shape, read back from the
    /// `serve-shard` arguments it was launched with, at its current
    /// port.
    pub fn topology(&self) -> Result<FleetTopology, String> {
        let mut ring = (0, 0);
        let mut members = Vec::with_capacity(self.shards.len());
        for (i, s) in self.shards.iter().enumerate() {
            let args = ServeShardArgs::parse(s.spec.args.get(1..).unwrap_or_default())?;
            ring = (args.total, args.vnodes);
            members.push(FleetMember {
                base: args.base,
                count: args.count,
                addr: self.addr(i),
            });
        }
        FleetTopology::try_new(ring.0, ring.1, members).map_err(|e| e.to_string())
    }

    pub fn len(&self) -> usize {
        self.shards.len()
    }

    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    pub fn port(&self, i: usize) -> u16 {
        self.shards[i].port
    }

    /// `127.0.0.1:{port}` for member `i` — what the router dials.
    pub fn addr(&self, i: usize) -> String {
        format!("127.0.0.1:{}", self.shards[i].port)
    }

    /// Liveness probe: a fresh short-lived connection sending one
    /// [`Request::Ping`]. A member that cannot answer within the ping
    /// timeout is considered down.
    pub fn ping(&self, i: usize) -> bool {
        let Ok(mut conn) = Connection::connect(self.addr(i).as_str()) else {
            return false;
        };
        if conn.set_timeout(Some(self.ping_timeout)).is_err() {
            return false;
        }
        matches!(conn.call(&Request::Ping), Ok(Response::Pong))
    }

    /// Kill member `i` outright (SIGKILL — simulates a crash; nothing
    /// is flushed). Use [`Supervisor::restart`] or
    /// [`Supervisor::check_and_restart`] to bring it back.
    pub fn kill(&mut self, i: usize) -> Result<(), String> {
        let s = &mut self.shards[i];
        s.child.kill().map_err(|e| e.to_string())?;
        s.child.wait().map_err(|e| e.to_string())?;
        Ok(())
    }

    /// Respawn member `i` from its spec. The replacement binds a fresh
    /// ephemeral port and recovers from its durability directory before
    /// listening; callers must re-point their router at
    /// [`Supervisor::addr`]`(i)` afterwards.
    pub fn restart(&mut self, i: usize) -> Result<(), String> {
        let s = &mut self.shards[i];
        // Reap whatever is left of the old process; ignore errors from
        // an already-dead child.
        let _ = s.child.kill();
        let _ = s.child.wait();
        let (child, port) = spawn_shard(&s.spec)?;
        s.child = child;
        s.port = port;
        Ok(())
    }

    /// One control-loop tick: ping every member and restart the ones
    /// that fail. Returns the indices restarted (their ports changed).
    pub fn check_and_restart(&mut self) -> Result<Vec<usize>, String> {
        let mut restarted = Vec::new();
        for i in 0..self.shards.len() {
            if !self.ping(i) {
                self.restart(i)?;
                restarted.push(i);
            }
        }
        Ok(restarted)
    }

    /// Reap every child. Call after the members were asked to exit
    /// (e.g. [`FleetRouter::shutdown_all`]); any child still running is
    /// killed — which is exactly what dropping the supervisor does.
    pub fn shutdown(self) {}
}

impl Drop for Supervisor {
    fn drop(&mut self) {
        for s in &mut self.shards {
            if !matches!(s.child.try_wait(), Ok(Some(_))) {
                let _ = s.child.kill();
                let _ = s.child.wait();
            }
        }
    }
}

/// Entry point for `sccf route` — launch a fleet, drive it, tear it
/// down. Flags: `--procs` (default 2), `--shards-per-proc` (default 2),
/// `--vnodes` (default 0 = modulo ring), `--events` (default 400),
/// `--dir` (durability root; default: temp, removed afterwards), plus
/// the `--world-*` flags of [`WorldSpec`].
pub fn route_main(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    let procs: usize = flags.parsed("procs", 2)?;
    let per: usize = flags.parsed("shards-per-proc", 2)?;
    let vnodes: usize = flags.parsed("vnodes", 0)?;
    let events: u64 = flags.parsed("events", 400)?;
    if procs == 0 || per == 0 {
        return Err("--procs and --shards-per-proc must be ≥ 1".to_string());
    }
    let world = WorldSpec::from_flag(|key| flags.get(key).map(str::to_string))?;

    let root = match flags.get("dir") {
        Some(d) => PathBuf::from(d),
        None => std::env::temp_dir().join(format!("sccf-route-{}", std::process::id())),
    };
    flags.finish()?;
    std::fs::create_dir_all(&root).map_err(|e| format!("creating {}: {e}", root.display()))?;

    // Train once; every shard server rehydrates the same floats.
    eprintln!("[route] training model for {} users…", world.n_users);
    let model_path = root.join("model.fism");
    std::fs::write(&model_path, world.train_model())
        .map_err(|e| format!("writing {}: {e}", model_path.display()))?;

    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    eprintln!("[route] launching {procs} shard servers × {per} shards…");
    let mut sup =
        Supervisor::launch_uniform(&exe, procs, per, vnodes, &world, &model_path, Some(&root))?;
    let mut router = FleetRouter::connect(sup.topology()?).map_err(|e| e.to_string())?;

    let n_users = world.n_users as u32;
    let n_items = world.n_items as u32;
    let batch: Vec<(u32, u32)> = (0..events)
        .map(|k| {
            let k = k as u32;
            (
                k.wrapping_mul(131) % n_users,
                (k.wrapping_mul(7919).wrapping_add(13)) % n_items,
            )
        })
        .collect();
    eprintln!("[route] ingesting {events} events…");
    let ingested = router.ingest_batch(&batch).map_err(|e| e.to_string())?;
    router.flush().map_err(|e| e.to_string())?;

    let sample: Vec<u32> = (0..n_users).step_by(7).collect();
    let slates = router
        .recommend_many(&sample, &RecQuery::top(5))
        .map_err(|e| e.to_string())?;
    let marks = router.checkpoint_all().map_err(|e| e.to_string())?;
    let restarted = sup.check_and_restart()?;
    let stats = router.serving_stats().map_err(|e| e.to_string())?;

    println!("fleet: {procs} procs × {per} shards (vnodes={vnodes})");
    println!("ingested: {ingested} events, flushed");
    println!(
        "recommended: {} slates of 5 (first user {} → {:?})",
        slates.len(),
        sample[0],
        slates[0].ids()
    );
    println!("checkpoint epochs: {marks:?}");
    println!("health check: restarted {restarted:?}");
    let (infer, identify) = (&stats.timings.infer, &stats.timings.identify);
    println!(
        "stats: events={} recommends={} durable={} infer_p50_us={:.2} infer_p99_us={:.2} \
         identify_p50_us={:.2} identify_p99_us={:.2}",
        stats.events,
        stats.recommends,
        stats.durability.enabled,
        infer.p50_ms() * 1e3,
        infer.p99_ms() * 1e3,
        identify.p50_ms() * 1e3,
        identify.p99_ms() * 1e3
    );
    std::io::stdout().flush().map_err(|e| e.to_string())?;

    router.shutdown_all().map_err(|e| e.to_string())?;
    sup.shutdown();
    if flags.get("dir").is_none() {
        let _ = std::fs::remove_dir_all(&root);
    }
    Ok(())
}
