//! Launching, wiring and tearing down the fleet under test.
//!
//! The members are **real `serve-shard` processes**: this binary
//! re-executes itself with the `serve-shard` role, which calls
//! `sccf_net::serve_shard_main` — the server loop `sccf serve-shard`
//! runs — so a request crosses a process boundary and the host's
//! loopback interface exactly as in a deployment. The router
//! (`sccf_net::FleetRouter`) lives in the benchmark process, next to
//! the one generator thread, with one connection per member.
//!
//! Every child and every file the run creates hangs off one [`Procs`]
//! registry, which a drop guard, the error path and the hard-timeout
//! watchdog all tear down the same way: kill, **wait**, remove the
//! run's directory.

use std::path::{Path, PathBuf};
use std::process::Child;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use sccf_core::{decode_user_state, FrozenTierMode, GlobalNeighborSnapshot, TIER_BUILD_SEED};
use sccf_net::{spawn_shard, FleetRouter, ServeShardArgs, ShardSpec, WorldSpec};
use sccf_serving::api::{ServingApi, ServingStats};
use sccf_serving::fleet::{FleetMember, FleetTopology};

use crate::config;

/// Owns every child process and the run's scratch directory.
pub struct Procs {
    inner: Mutex<ProcsInner>,
}

struct ProcsInner {
    children: Vec<Option<Child>>,
    root: PathBuf,
}

impl Procs {
    /// `root` is created now and removed by [`Procs::reap_all`].
    pub fn new(root: PathBuf) -> Result<Arc<Self>, String> {
        std::fs::create_dir_all(&root).map_err(|e| format!("creating {}: {e}", root.display()))?;
        Ok(Arc::new(Self {
            inner: Mutex::new(ProcsInner {
                children: Vec::new(),
                root,
            }),
        }))
    }

    pub fn root(&self) -> PathBuf {
        self.lock().root.clone()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ProcsInner> {
        // Every update under the lock leaves the table valid (a slot is
        // a live child or `None`), so a panic elsewhere must not stop
        // the teardown from reaching the children.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn adopt(&self, child: Child) -> usize {
        let mut g = self.lock();
        g.children.push(Some(child));
        g.children.len() - 1
    }

    pub fn pid(&self, slot: usize) -> Option<u32> {
        self.lock().children[slot].as_ref().map(Child::id)
    }

    /// SIGKILL one child and wait until it is gone.
    pub fn kill(&self, slot: usize) {
        if let Some(mut child) = self.lock().children[slot].take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }

    /// Wait for a child that was asked to exit; kill it if it has not
    /// done so on its own.
    fn reap(&self, slot: usize) {
        if let Some(mut child) = self.lock().children[slot].take() {
            for _ in 0..200 {
                if matches!(child.try_wait(), Ok(Some(_))) {
                    return;
                }
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            let _ = child.kill();
            let _ = child.wait();
        }
    }

    /// Kill and wait for every child, then remove the run directory.
    /// Idempotent; called from the drop guard and from the watchdog.
    pub fn reap_all(&self) {
        let mut g = self.lock();
        for slot in &mut g.children {
            if let Some(mut child) = slot.take() {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
        let _ = std::fs::remove_dir_all(&g.root);
    }
}

/// Tears the run down on every way out of `main`: return, `?`, panic.
pub struct RunGuard(pub Arc<Procs>);

impl Drop for RunGuard {
    fn drop(&mut self) {
        self.0.reap_all();
    }
}

/// What one set-up spent where (wall clock, this process's view).
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub train_s: f64,
    pub spawn_s: f64,
    pub connect_s: f64,
    pub tier_export_ms: f64,
    pub tier_build_ms: f64,
    pub tier_encode_bytes: usize,
    pub tier_install_ms: f64,
    pub total_s: f64,
}

/// A running, connected, tier-armed fleet.
pub struct Fleet {
    procs: Arc<Procs>,
    pub spec: WorldSpec,
    shard_specs: Vec<ShardSpec>,
    slots: Vec<usize>,
    ports: Vec<u16>,
    member_dirs: Vec<PathBuf>,
    router: Option<FleetRouter>,
    /// The encoded frozen tier every member serves from; re-installed
    /// verbatim on a restarted member so slates stay bit-comparable.
    pub tier_bytes: Vec<u8>,
    pub model_bytes: Vec<u8>,
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

impl Fleet {
    /// Train, spawn, handshake, build and install the frozen tier.
    /// `dir` must be a fresh directory under the run root. Also returns
    /// every user's history as the members hold it after start-up (the
    /// decoded tier export), for the split self-check.
    pub fn set_up(
        procs: &Arc<Procs>,
        spec: &WorldSpec,
        dir: &Path,
    ) -> Result<(Fleet, SetupTimes, Vec<Vec<u32>>), String> {
        let t_all = Instant::now();
        let mut times = SetupTimes::default();
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;

        let t = Instant::now();
        let model_bytes = spec.train_model();
        let model_path = dir.join("model.fism");
        std::fs::write(&model_path, &model_bytes)
            .map_err(|e| format!("writing {}: {e}", model_path.display()))?;
        times.train_s = secs(t);

        let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
        let total = config::MEMBERS * config::SHARDS_PER_MEMBER;
        let member_dirs: Vec<PathBuf> = (0..config::MEMBERS)
            .map(|m| dir.join(format!("member-{m}")))
            .collect();
        let shard_specs: Vec<ShardSpec> = (0..config::MEMBERS)
            .map(|m| {
                let args = ServeShardArgs {
                    base: m * config::SHARDS_PER_MEMBER,
                    count: config::SHARDS_PER_MEMBER,
                    total,
                    vnodes: config::VNODES,
                    dir: Some(member_dirs[m].clone()),
                    fsync_every: config::FSYNC_EVERY,
                    checkpoint_every: config::CHECKPOINT_EVERY,
                    world: spec.clone(),
                    model_file: Some(model_path.clone()),
                    read_ahead: config::READ_AHEAD,
                    ..ServeShardArgs::default()
                };
                let mut argv = vec!["serve-shard".to_string()];
                argv.extend(args.to_args());
                ShardSpec::new(exe.clone(), argv)
            })
            .collect();

        // Members are started at the same time, as a deployment would
        // (`Supervisor::launch` starts them one after the other); on the
        // one CPU the benchmark is pinned to (`affinity.rs`) their world
        // builds then time-share it.
        let t = Instant::now();
        let spawned: Vec<Result<(Child, u16), String>> = std::thread::scope(|s| {
            let handles: Vec<_> = shard_specs
                .iter()
                .map(|spec| s.spawn(move || spawn_shard(spec)))
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("spawn thread panicked".into()))
                })
                .collect()
        });
        let mut slots = Vec::new();
        let mut ports = Vec::new();
        let mut first_err = None;
        for r in spawned {
            match r {
                // Adopt every child that did start before reporting a
                // failure, so the guard can reap it.
                Ok((child, port)) => {
                    slots.push(procs.adopt(child));
                    ports.push(port);
                }
                Err(e) => first_err = first_err.or(Some(e)),
            }
        }
        if let Some(e) = first_err {
            return Err(format!("launching members: {e}"));
        }
        times.spawn_s = secs(t);

        let t = Instant::now();
        let router = connect(&ports)?;
        times.connect_s = secs(t);

        let mut fleet = Fleet {
            procs: Arc::clone(procs),
            spec: spec.clone(),
            shard_specs,
            slots,
            ports,
            member_dirs,
            router: Some(router),
            tier_bytes: Vec::new(),
            model_bytes,
        };
        let histories = fleet.build_and_install_tier(&mut times)?;
        times.total_s = secs(t_all);
        Ok((fleet, times, histories))
    }

    /// The fleet-level tier refresh, as an operator's script would run
    /// it: export every user's state from its owner, build one
    /// whole-population snapshot, install it on every member.
    fn build_and_install_tier(&mut self, times: &mut SetupTimes) -> Result<Vec<Vec<u32>>, String> {
        let n_users = self.spec.n_users;
        let window = self.spec.recent_window;
        let t = Instant::now();
        let users: Vec<u32> = (0..n_users as u32).collect();
        let mut entries = Vec::with_capacity(n_users);
        let mut histories = vec![Vec::new(); n_users];
        for chunk in users.chunks(config::TIER_EXPORT_CHUNK) {
            let blobs = self
                .router()
                .export_user_states(chunk)
                .map_err(|e| format!("exporting user states: {e}"))?;
            for blob in blobs {
                let (user, rep, history) =
                    decode_user_state(&blob).map_err(|e| format!("decoding user state: {e:?}"))?;
                let recent = history[history.len().saturating_sub(window)..].to_vec();
                entries.push((user, rep, recent));
                histories[user as usize] = history;
            }
        }
        times.tier_export_ms = secs(t) * 1e3;

        let t = Instant::now();
        let snapshot = GlobalNeighborSnapshot::build_with_mode(
            1,
            n_users,
            self.spec.dim,
            FrozenTierMode::Flat,
            TIER_BUILD_SEED,
            entries,
        );
        self.tier_bytes = snapshot.encode();
        times.tier_build_ms = secs(t) * 1e3;
        times.tier_encode_bytes = self.tier_bytes.len();

        let t = Instant::now();
        self.install_tier()?;
        times.tier_install_ms = secs(t) * 1e3;
        Ok(histories)
    }

    pub fn install_tier(&mut self) -> Result<(), String> {
        let bytes = std::mem::take(&mut self.tier_bytes);
        let res = self
            .router()
            .install_tier_bytes(&bytes)
            .map_err(|e| format!("installing the tier: {e}"));
        self.tier_bytes = bytes;
        res
    }

    pub fn router(&mut self) -> &mut FleetRouter {
        self.router
            .as_mut()
            .expect("fleet is connected until shut down")
    }

    pub fn addr(&self, member: usize) -> String {
        format!("127.0.0.1:{}", self.ports[member])
    }

    pub fn member_dir(&self, member: usize) -> &Path {
        &self.member_dirs[member]
    }

    pub fn stats(&mut self) -> Result<ServingStats, String> {
        self.router()
            .serving_stats()
            .map_err(|e| format!("reading fleet stats: {e}"))
    }

    /// Σ over members of `VmHWM` (peak resident set), in MiB.
    pub fn mem_peak_mb(&self) -> Result<f64, String> {
        let mut total_kb = 0u64;
        for &slot in &self.slots {
            let pid = self.procs.pid(slot).ok_or("member is not running")?;
            let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
                .map_err(|e| format!("reading /proc/{pid}/status: {e}"))?;
            let kb = status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
                .ok_or_else(|| format!("no VmHWM in /proc/{pid}/status"))?;
            total_kb += kb;
        }
        Ok(total_kb as f64 / 1024.0)
    }

    /// SIGKILL a member (nothing is flushed) and wait for it to be gone.
    pub fn kill_member(&mut self, member: usize) {
        self.procs.kill(self.slots[member]);
    }

    /// Start a member again with the same command line — it recovers
    /// from its `--dir` or starts fresh — and re-point the router.
    pub fn respawn_member(&mut self, member: usize) -> Result<(f64, f64), String> {
        let t = Instant::now();
        let (child, port) = spawn_shard(&self.shard_specs[member])?;
        let spawn_s = secs(t);
        self.slots[member] = self.procs.adopt(child);
        self.ports[member] = port;
        let t = Instant::now();
        let addr = self.addr(member);
        self.router()
            .reconnect(member, &addr)
            .map_err(|e| format!("reconnecting member {member}: {e}"))?;
        Ok((spawn_s, secs(t)))
    }

    /// Graceful stop: every member flushes, syncs, acknowledges, exits.
    pub fn shut_down(mut self) -> Result<(), String> {
        let res = match self.router.take() {
            Some(router) => router
                .shutdown_all()
                .map_err(|e| format!("shutting the fleet down: {e}")),
            None => Ok(()),
        };
        for &slot in &self.slots {
            self.procs.reap(slot);
        }
        res
    }
}

fn connect(ports: &[u16]) -> Result<FleetRouter, String> {
    let members = ports
        .iter()
        .enumerate()
        .map(|(m, port)| FleetMember {
            base: m * config::SHARDS_PER_MEMBER,
            count: config::SHARDS_PER_MEMBER,
            addr: format!("127.0.0.1:{port}"),
        })
        .collect();
    let topology = FleetTopology::try_new(
        config::MEMBERS * config::SHARDS_PER_MEMBER,
        config::VNODES,
        members,
    )
    .map_err(|e| format!("fleet topology: {e}"))?;
    FleetRouter::connect(topology).map_err(|e| format!("fleet handshake: {e}"))
}

/// Child-side guard: a `serve-shard` child whose parent is gone (the
/// benchmark was killed from outside, so no drop guard ran) exits on its
/// own instead of lingering on a core of the next run.
pub fn exit_when_orphaned() {
    fn parent_pid() -> Option<u32> {
        std::fs::read_to_string("/proc/self/status")
            .ok()?
            .lines()
            .find_map(|l| l.strip_prefix("PPid:"))
            .and_then(|v| v.trim().parse().ok())
    }
    let Some(original) = parent_pid() else { return };
    std::thread::spawn(move || loop {
        std::thread::sleep(std::time::Duration::from_millis(500));
        if parent_pid() != Some(original) {
            std::process::exit(0);
        }
    });
}
