//! One run of one workload: set up, check, load, measure, report.
//!
//! An untraced run produces the end-to-end metrics; a traced run
//! (`--trace 1`) produces the per-layer metrics, the span file and the
//! waterfall, and never an end-to-end figure. The two lists, with their
//! units, come from `BENCHMARK.json`; the run refuses to report if what
//! it measured and what the file declares disagree.

use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use crate::check::{self, Shadow};
use crate::config::{self, *};
use crate::fleet::{Fleet, Procs, RunGuard, SetupTimes};
use crate::json::Json;
use crate::layers::{self, Layers};
use crate::loadgen::{streams, Gen};
use crate::spec::BenchSpec;
use crate::stats::{self, percentile};
use crate::trace::{Src, Tracer};
use crate::workloads::{self, Outcome, Phase, Window};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    MixedOpen,
    IngestClosed,
    RecWire,
    Restart,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::MixedOpen,
        Workload::IngestClosed,
        Workload::RecWire,
        Workload::Restart,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MixedOpen => "mixed_open",
            Workload::IngestClosed => "ingest_closed",
            Workload::RecWire => "rec_wire",
            Workload::Restart => "restart",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    fn world(self) -> sccf_net::WorldSpec {
        match self {
            Workload::RecWire | Workload::Restart => config::world_s(),
            _ => config::world_m(),
        }
    }
}

pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// One metric as reported: value, how many samples stand behind it, and
/// (for windowed timings) the per-window values it is the best of.
#[derive(Debug, Clone)]
pub struct Reported {
    pub value: f64,
    pub n: usize,
    pub windows: Vec<f64>,
}

impl Reported {
    /// A value that is one measurement, not a statistic over windows.
    fn plain(value: f64, n: usize) -> Self {
        Self {
            value,
            n,
            windows: Vec::new(),
        }
    }

    /// The best of the per-window values: the smallest time, the
    /// largest rate.
    fn best(windows: Vec<f64>, higher_is_better: bool, n: usize) -> Self {
        let ranked = stats::best_first(&windows, higher_is_better);
        Self {
            value: ranked.first().copied().unwrap_or(0.0),
            n,
            windows,
        }
    }
}

pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, Reported)>,
    /// The workload's entry in a result file.
    pub entry: Json,
    /// Human-readable lines, printed before the result line.
    pub text: String,
}

impl RunResult {
    /// The one line the driver reads.
    pub fn result_line(&self, spec: &BenchSpec) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, r)| {
                (
                    name.clone(),
                    Json::obj(vec![
                        ("value", Json::Num(r.value)),
                        ("unit", Json::str(spec.unit_of(name))),
                    ]),
                )
            })
            .collect();
        Json::obj(vec![
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .compact()
    }
}

/// Kills the children, removes the run directory and exits 3 if the run
/// is not over by the deadline. Dropping the returned sender (any way
/// out of `run`) ends the thread, which the handle then joins.
fn watchdog(procs: Arc<Procs>) -> (mpsc::Sender<()>, std::thread::JoinHandle<()>) {
    let (tx, rx) = mpsc::channel::<()>();
    let handle = std::thread::spawn(move || {
        if let Err(mpsc::RecvTimeoutError::Timeout) =
            rx.recv_timeout(Duration::from_secs(HARD_TIMEOUT_S))
        {
            eprintln!("FAIL hard timeout after {HARD_TIMEOUT_S} s: killing the fleet");
            procs.reap_all();
            std::process::exit(3);
        }
    });
    (tx, handle)
}

pub fn out_dir() -> Result<PathBuf, String> {
    if !Path::new("benchmark/Cargo.toml").is_file() {
        return Err("run from the repository root (benchmark/Cargo.toml not found here)".into());
    }
    let dir = PathBuf::from("benchmark/out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir)
}

pub fn run(args: &RunArgs, spec: &BenchSpec) -> Result<RunResult, String> {
    let out = out_dir()?;
    let procs = Procs::new(out.join(format!("run-{}", std::process::id())))?;
    let _guard = RunGuard(Arc::clone(&procs));
    let (alive, dog) = watchdog(Arc::clone(&procs));
    let result = run_guarded(args, spec, &procs, &out);
    drop(alive);
    let _ = dog.join();
    result
}

type Metrics = Vec<(String, Reported)>;

fn run_guarded(
    args: &RunArgs,
    spec: &BenchSpec,
    procs: &Arc<Procs>,
    out_dir: &Path,
) -> Result<RunResult, String> {
    let world = args.workload.world();
    let split = check::rebuild_split(&world);
    // Set up, shutting each fleet down before the next; the last one
    // carries the workload.
    let n_setups = if args.trace { 1 } else { SETUPS_PER_RUN };
    let mut setup_s = Vec::with_capacity(n_setups);
    let mut built = None;
    for i in 0..n_setups {
        if let Some((fleet, _, _)) = built.take() {
            Fleet::shut_down(fleet)?;
        }
        let dir = procs.root().join(format!("setup-{i}"));
        let (fleet, times, histories) = Fleet::set_up(procs, &world, &dir)?;
        setup_s.push(times.total_s);
        built = Some((fleet, times, histories));
    }
    let (mut fleet, setup, histories) = built.ok_or("no set-up was made")?;

    // Pre-flight: the split is the one the fleet serves; then the
    // quality guard, on the pristine fleet with the tier on.
    let mut preflight = Phase {
        name: "preflight",
        sent: 1,
        failed: 0,
    };
    if let Err(e) = check::check_histories(&split, &histories) {
        eprintln!("FAIL {e}");
        preflight.failed = 1;
    }
    let (hr, hr_users, hr_bad) = check::hit_ratio(&mut fleet, &split, HR_USERS, HR_K)?;
    preflight.sent += hr_users as u64;
    preflight.failed += hr_bad;
    let mut before = vec![preflight];

    // `rec_wire`: the pin discipline, before its state is frozen.
    let mut shadow = None;
    if args.workload == Workload::RecWire {
        let (twin, phase) = pin_prefix(&mut fleet, args.seed)?;
        before.push(phase);
        shadow = Some(twin);
    }

    let mut tracer = args.trace.then(Tracer::new);
    let (seed, seconds, tr) = (args.seed, args.seconds, tracer.as_mut());
    let mut outcome = match args.workload {
        Workload::MixedOpen => workloads::mixed_open(&mut fleet, seed, seconds, tr),
        Workload::IngestClosed => workloads::ingest_closed(&mut fleet, seed, seconds, tr),
        Workload::RecWire => workloads::rec_wire(&mut fleet, seed, seconds, tr),
        Workload::Restart => workloads::restart(&mut fleet, seed, seconds, tr),
    }?;
    outcome.phases.splice(0..0, before);

    let (metrics, trace_text) = match tracer {
        Some(mut tracer) => {
            let dirs = (procs.root(), out_dir);
            let (metrics, text) =
                per_layer(args, fleet, &outcome, &setup, shadow, &mut tracer, dirs)?;
            spec.check_names(&metrics, &spec.per_layer, "per_layer")?;
            (metrics, text)
        }
        None => {
            let metrics = end_to_end(fleet, &outcome, setup_s, (hr, hr_users))?;
            spec.check_names(&metrics, &spec.end_to_end, "end_to_end")?;
            (metrics, String::new())
        }
    };

    let (attempted, failed) = (outcome.attempted(), outcome.failed());
    let correct = failed == 0;
    let mut text = render(args, spec, &outcome, &metrics);
    text.push_str(&trace_text);
    let entry = entry_json(args, &outcome, &metrics, spec, correct, attempted, failed);
    Ok(RunResult {
        correct,
        attempted,
        failed,
        metrics,
        entry,
        text,
    })
}

/// `rec_wire` preparation: a seeded prefix through the fleet and through
/// the in-process twin, then the pin check.
fn pin_prefix(fleet: &mut Fleet, seed: u64) -> Result<(Shadow, Phase), String> {
    let (n_users, n_items) = (fleet.spec.n_users as u32, fleet.spec.n_items as u32);
    let prefix = Gen::new(seed, streams::PREFIX).events(n_users, n_items, REC_PIN_PREFIX_EVENTS);
    let batches: Vec<Vec<(u32, u32)>> = prefix.chunks(INGEST_BATCH).map(<[_]>::to_vec).collect();
    let acked = fleet
        .router()
        .ingest_batches(&batches)
        .map_err(|e| format!("pin prefix: {e}"))?;
    let mut twin = Shadow::build(&fleet.spec, &fleet.model_bytes, &fleet.tier_bytes)?;
    twin.ingest(&prefix)?;
    let mut users = Gen::new(seed, streams::SAMPLE_USERS);
    let pinned: Vec<u32> = (0..PIN_USERS).map(|_| users.uniform(n_users)).collect();
    // Test hook (benchmark/tests/gate.rs): corrupt one expected slate to
    // prove a mismatch fails the run.
    let corrupt = std::env::var_os("SCCF_BENCH_CORRUPT_EXPECTED").is_some();
    let mismatches = check::pin_against_shadow(fleet, &mut twin, &pinned, corrupt)?;
    let lost = (prefix.len() as u64).saturating_sub(acked);
    let phase = Phase {
        name: "pin",
        sent: prefix.len() as u64 + pinned.len() as u64 + 1,
        failed: mismatches + lost,
    };
    Ok((twin, phase))
}

/// Traced run: the per-layer metrics, the span file, the waterfall.
/// Consumes the fleet (the in-process probes run after it is shut down).
fn per_layer(
    args: &RunArgs,
    mut fleet: Fleet,
    outcome: &Outcome,
    setup: &SetupTimes,
    shadow: Option<Shadow>,
    tracer: &mut Tracer,
    (root, out_dir): (PathBuf, &Path),
) -> Result<(Metrics, String), String> {
    let mut layers = Layers::new();
    layers::from_setup(setup, &mut layers);
    let recover_copy = root.join("recover-copy");
    let a_slate = layers::probe_fleet(&mut fleet, outcome, &recover_copy, &mut layers)?;
    let world = fleet.spec.clone();
    let (model_bytes, tier_bytes) = (fleet.model_bytes.clone(), fleet.tier_bytes.clone());
    fleet.shut_down()?;
    let (world_build_s, recover_ms) = layers::probe_in_process(
        &layers::InProcess {
            spec: &world,
            model_bytes: &model_bytes,
            tier_bytes: &tier_bytes,
            outcome,
            recover_dir: &recover_copy,
            scratch_dir: &root.join("probe"),
        },
        shadow,
        a_slate,
        &mut layers,
    )?;
    // Restart: what the respawned process spent its start-up on can only
    // be seen from outside as one `spawn` span; lay the two in-process
    // measurements into it, labelled as estimates.
    for &(span, req) in &outcome.spawn_spans {
        let left = tracer.lay_at_end(
            span,
            req,
            &[
                ("world.build", world_build_s * 1e9, Src::Estimate),
                ("recover.engine", recover_ms * 1e6, Src::Estimate),
            ],
        );
        tracer.over_attributed(span, &left);
    }
    // What a request into the fleet costs besides engine work, as the
    // probes measured it: the router's own share of a routed recommend,
    // one round trip through framing, syscalls and the server loop, one
    // crossing of the shard queue, one WAL append with its share of an
    // fsync per event.
    let probe = |name: &str| layers.get(name).map_or(0.0, |&(v, _)| v.max(0.0));
    let probe_ns = |name: &str| probe(name) * 1e3;
    let wal_ns = probe("wal.append_ns") + probe_ns("wal.sync_us") / f64::from(FSYNC_EVERY);
    for call in &outcome.fleet_calls {
        let n = call.requests as f64;
        let router = if call.recommend {
            probe_ns("router.rec_self_us")
        } else {
            0.0
        };
        let left = tracer.lay_at_end(
            call.span,
            call.req,
            &[
                ("router.rec_self", router, Src::Estimate),
                (
                    "transport.ping_rtt",
                    n * probe_ns("transport.ping_rtt_us"),
                    Src::Estimate,
                ),
                ("sharded.hop", n * probe_ns("sharded.hop_us"), Src::Estimate),
                (
                    "wal.append_sync",
                    call.events as f64 * wal_ns,
                    Src::Estimate,
                ),
            ],
        );
        tracer.over_attributed(call.span, &left);
    }
    let waterfall = tracer.waterfall(outcome.trace_root);
    let trace_path = out_dir.join(format!("trace-{}.jsonl", args.workload.name()));
    tracer
        .write_jsonl(&trace_path)
        .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;

    let windows = &outcome.windows;
    let headline = |w: &Window| match args.workload {
        Workload::IngestClosed => w.wall_s,
        _ => percentile(&w.lat_ms, 0.5),
    };
    let overhead = match windows.as_slice() {
        [plain, traced] if headline(plain) > 0.0 => headline(traced) / headline(plain),
        _ => 1.0,
    };
    let all_lat: Vec<f64> = windows
        .iter()
        .flat_map(|w| w.lat_ms.iter().copied())
        .collect();
    let worst_goodput = windows.iter().map(goodput).fold(f64::INFINITY, f64::min);
    layers.insert("loadgen.trace_overhead_ratio", (overhead, windows.len()));
    layers.insert(
        "loadgen.late_p99_ms",
        (percentile(&outcome.late_ms, 0.99), outcome.late_ms.len()),
    );
    layers.insert("op.worst_ms", (percentile(&all_lat, 1.0), all_lat.len()));
    layers.insert("goodput.worst_window_per_s", (worst_goodput, windows.len()));
    layers.insert(
        "waterfall.unattributed_ratio",
        (waterfall.unattributed_ratio(), waterfall.ops),
    );
    let metrics: Metrics = layers
        .into_iter()
        .map(|(name, (value, n))| (name.to_string(), Reported::plain(value, n)))
        .collect();

    let mut text = waterfall.render();
    text.push_str(&format!(
        "  {} spans written to {}\n",
        tracer.len(),
        trace_path.display()
    ));
    text.push_str(&shares(&metrics, setup));
    Ok((metrics, text))
}

/// Untraced run: the end-to-end metrics. Every timing is a per-window
/// statistic and the reported value is that of the **best window** (see
/// `README.md`, "Why the best window"). Consumes the fleet (memory is
/// read just before it is shut down).
fn end_to_end(
    fleet: Fleet,
    outcome: &Outcome,
    setup_s: Vec<f64>,
    (hr, hr_users): (f64, usize),
) -> Result<Metrics, String> {
    let mem = fleet.mem_peak_mb()?;
    fleet.shut_down()?;
    let windows = &outcome.windows;
    let per_window = |f: &dyn Fn(&Window) -> f64| -> Vec<f64> { windows.iter().map(f).collect() };
    let samples: usize = windows.iter().map(|w| w.lat_ms.len()).sum();
    let done: usize = windows.iter().map(|w| w.good as usize).sum();
    Ok(vec![
        (
            "setup_s".into(),
            Reported::plain(stats::median(&setup_s), setup_s.len()),
        ),
        (
            "op_p50_ms".into(),
            Reported::best(per_window(&|w| percentile(&w.lat_ms, 0.5)), false, samples),
        ),
        (
            "op_p99_ms".into(),
            Reported::best(per_window(&|w| percentile(&w.lat_ms, 0.99)), false, samples),
        ),
        (
            "goodput_per_s".into(),
            Reported::best(per_window(&goodput), true, done),
        ),
        ("mem_peak_mb".into(), Reported::plain(mem, MEMBERS)),
        ("hr20".into(), Reported::plain(hr, hr_users)),
    ])
}

/// The human-readable block printed before the result line.
fn render(args: &RunArgs, spec: &BenchSpec, outcome: &Outcome, metrics: &Metrics) -> String {
    let (attempted, failed) = (outcome.attempted(), outcome.failed());
    let mut text = format!(
        "# {} seed {} seconds {} trace {} — {MEMBERS} serve-shard processes × \
         {SHARDS_PER_MEMBER} shard, loopback TCP, 1 generator thread, {MEMBERS} connections\n",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
    );
    text.push_str(&format!("ops_digest 0x{:08x}\n", outcome.ops.finish()));
    text.push_str(&format!("slate_digest 0x{:08x}\n", outcome.slates.finish()));
    for p in &outcome.phases {
        text.push_str(&format!(
            "phase {} sent={} succeeded={} failed={}\n",
            p.name,
            p.sent,
            p.succeeded(),
            p.failed
        ));
    }
    for (name, r) in metrics {
        text.push_str(&format!(
            "{name} {} {} n={}\n",
            spec.unit_of(name),
            r.value,
            r.n
        ));
    }
    text.push_str(&format!(
        "fail_ratio ratio {} n={attempted}\n",
        failed as f64 / attempted.max(1) as f64
    ));
    if !args.trace {
        text.push_str(&issue_names(args.workload, outcome, metrics));
    }
    text
}

/// The same values under the names ISSUE 11 gave them, each printed on
/// the workload it is defined on (the driver wants one set of names
/// reported by every workload; later issues cite these).
fn issue_names(workload: Workload, outcome: &Outcome, metrics: &Metrics) -> String {
    let of = |name: &str| {
        metrics
            .iter()
            .find(|(n, _)| n == name)
            .map_or((0.0, 0), |(_, r)| (r.value, r.n))
    };
    let line = |alias: &str, unit: &str, from: &str, scale: f64| {
        let (value, n) = of(from);
        format!("{alias} {unit} {} n={n} (= {from})\n", value * scale)
    };
    match workload {
        Workload::MixedOpen => {
            let due: usize = outcome.windows.iter().map(|w| w.lat_ms.len()).sum();
            let good: u64 = outcome.windows.iter().map(|w| w.good).sum();
            format!(
                "{}{}slo_ok_ratio ratio {} n={due} (slates correct and within {SLO_MS} ms / due)\n",
                line("e2s_p50_ms", "ms", "op_p50_ms", 1.0),
                line("e2s_p99_ms", "ms", "op_p99_ms", 1.0),
                good as f64 / due.max(1) as f64,
            )
        }
        Workload::IngestClosed => line("ingest_eps", "1/s", "goodput_per_s", 1.0),
        Workload::RecWire => format!(
            "{}{}",
            line("rec_p50_ms", "ms", "op_p50_ms", 1.0),
            line("rec_p99_ms", "ms", "op_p99_ms", 1.0)
        ),
        Workload::Restart => line("recover_s", "s", "op_p50_ms", 1e-3),
    }
}

fn goodput(w: &Window) -> f64 {
    if w.wall_s > 0.0 {
        w.good as f64 / w.wall_s
    } else {
        0.0
    }
}

/// The three layers ROADMAP item 5 names as optimisation candidates,
/// each as a share of the figure it feeds (all from this traced run).
fn shares(metrics: &[(String, Reported)], setup: &SetupTimes) -> String {
    let get = |name: &str| {
        metrics
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, r)| r.value)
    };
    let pct = |part: f64, whole: f64| {
        if whole > 0.0 {
            100.0 * part / whole
        } else {
            0.0
        }
    };
    let rec_us = get("core.rec_infer_us") + get("core.rec_identify_us");
    let ingest_us = get("core.ingest_infer_us") + get("core.ingest_identify_us");
    // Amortised: one fsync per FSYNC_EVERY appends.
    let wal_us = get("wal.append_ns") / 1e3 + get("wal.sync_us") / f64::from(FSYNC_EVERY);
    format!(
        "share world.build_s: {:.3} s = {:.1} % of this run's set-up ({:.3} s; feeds setup_s, \
         and recover on restart)\n\
         share tier.search_us: {:.1} us = {:.1} % of a recommend's server time ({:.1} us; feeds \
         op_p50_ms on mixed_open and rec_wire)\n\
         share wal append + fsync/{FSYNC_EVERY}: {:.2} us = {:.1} % of an ingested event's engine \
         time ({:.1} us; feeds goodput_per_s on ingest_closed)\n",
        get("world.build_s"),
        pct(get("world.build_s"), setup.total_s),
        setup.total_s,
        get("tier.search_us"),
        pct(get("tier.search_us"), rec_us),
        rec_us,
        wal_us,
        pct(wal_us, ingest_us),
        ingest_us,
    )
}

fn entry_json(
    args: &RunArgs,
    outcome: &Outcome,
    metrics: &[(String, Reported)],
    spec: &BenchSpec,
    correct: bool,
    attempted: u64,
    failed: u64,
) -> Json {
    let metrics_json: Vec<(String, Json)> = metrics
        .iter()
        .map(|(name, r)| {
            let mut fields = vec![
                ("value", Json::Num(r.value)),
                ("unit", Json::str(spec.unit_of(name))),
                ("n", Json::Num(r.n as f64)),
            ];
            if !r.windows.is_empty() {
                fields.push((
                    "windows",
                    Json::Arr(r.windows.iter().map(|&v| Json::Num(v)).collect()),
                ));
            }
            (name.clone(), Json::obj(fields))
        })
        .collect();
    let phases = outcome
        .phases
        .iter()
        .map(|p| {
            Json::obj(vec![
                ("name", Json::str(p.name)),
                ("sent", Json::Num(p.sent as f64)),
                ("succeeded", Json::Num(p.succeeded() as f64)),
                ("failed", Json::Num(p.failed as f64)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds as f64)),
        ("trace", Json::Bool(args.trace)),
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        (
            "fail_ratio",
            Json::Num(failed as f64 / attempted.max(1) as f64),
        ),
        (
            "ops_digest",
            Json::str(format!("0x{:08x}", outcome.ops.finish())),
        ),
        (
            "slate_digest",
            Json::str(format!("0x{:08x}", outcome.slates.finish())),
        ),
        ("phases", Json::Arr(phases)),
        ("metrics", Json::Obj(metrics_json)),
    ])
}

/// Where a result file's numbers came from.
pub fn host_json(seed: u64) -> Json {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .map(|s| s.trim().to_string())
            .ok()
    };
    let cmd = |prog: &str, args: &[&str]| {
        std::process::Command::new(prog)
            .args(args)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let unknown = || "unknown".to_string();
    let cpus_online = read("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0);
    let commit = cmd("git", &["rev-parse", "HEAD"]);
    let dirty = cmd("git", &["status", "--porcelain"]).map(|s| !s.is_empty());
    Json::obj(vec![
        ("nproc", Json::Num(cpus_online as f64)),
        (
            "available_parallelism",
            Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        (
            "kernel",
            Json::Str(read("/proc/sys/kernel/osrelease").unwrap_or_else(unknown)),
        ),
        (
            "rustc",
            Json::Str(cmd("rustc", &["-V"]).unwrap_or_else(unknown)),
        ),
        ("git_commit", Json::Str(commit.unwrap_or_else(unknown))),
        ("git_dirty", dirty.map_or(Json::Null, Json::Bool)),
        ("seed", Json::Num(seed as f64)),
        ("network", Json::str("loopback")),
    ])
}

/// Assemble and write a result file: host, constants, one entry per
/// workload run.
pub fn write_result_file(
    path: &Path,
    seed: u64,
    entries: Vec<(String, Json)>,
) -> Result<(), String> {
    let doc = Json::obj(vec![
        ("host", host_json(seed)),
        ("config", config::as_json()),
        ("workloads", Json::Obj(entries)),
    ]);
    std::fs::write(path, doc.pretty()).map_err(|e| format!("writing {}: {e}", path.display()))
}
