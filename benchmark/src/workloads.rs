//! The four workloads. Each drives the fleet through
//! `sccf_net::FleetRouter` from **one generator thread** over one
//! connection per member, records one latency sample per user-visible
//! operation into per-window sample sets, folds everything it sends and
//! receives into the two digests, and counts every failure.
//!
//! | workload | loop | the operation whose latency is `op_*_ms` | `goodput_per_s` counts | a window is |
//! |---|---|---|---|---|
//! | `mixed_open` | open, fixed 5 ms schedule | event **due** → slate of its writer received | slates correct and within the SLO | 400 ticks (2 s, 800 slates) |
//! | `ingest_closed` | closed, 1 client, fixed work | one `ingest_batches` call (4 × 256 events) | events acknowledged | 4 calls and the `flush` that closes them |
//! | `rec_wire` | closed, 1 client, fixed work | one `try_recommend` | slates | 1 000 recommends (≈ 50 ms) |
//! | `restart` | closed, scripted | SIGKILL → first bit-correct slate from the killed member | recoveries | 3 kill / recover cycles |
//!
//! In a traced run the last window additionally records spans (see
//! `trace.rs`); end-to-end metrics are never taken from it.

use std::time::{Duration, Instant};

use sccf_core::decode_histories;
use sccf_serving::api::{RecQuery, RecResponse, ServingApi, ServingStats};

use crate::check::{slate_bits, slate_problem};
use crate::config::*;
use crate::fleet::Fleet;
use crate::loadgen::{streams, Gen, OpsDigest, SlateDigest};
use crate::trace::{Src, Tracer};

/// One measured window: the raw latency samples, the wall time they
/// were taken in, and how many good units of work it completed.
#[derive(Debug, Clone, Default)]
pub struct Window {
    pub lat_ms: Vec<f64>,
    pub wall_s: f64,
    pub good: u64,
}

#[derive(Debug, Clone)]
pub struct Phase {
    pub name: &'static str,
    pub sent: u64,
    pub failed: u64,
}

impl Phase {
    pub fn succeeded(&self) -> u64 {
        self.sent.saturating_sub(self.failed)
    }
}

/// Everything a workload hands back to the reporter.
pub struct Outcome {
    pub windows: Vec<Window>,
    pub phases: Vec<Phase>,
    pub ops: OpsDigest,
    pub slates: SlateDigest,
    /// How late each measured tick started (`mixed_open` only).
    pub late_ms: Vec<f64>,
    /// Ops the servers must account for between `ledger_open` and
    /// `ledger_close`: events ingested, recommendations served.
    expect_events: u64,
    expect_recommends: u64,
    ledger: Option<ServingStats>,
    /// Events sent, in order, capped — what a traced run replays into
    /// the shadow replica so its probes see this workload's state.
    pub replay: Vec<(u32, u32)>,
    /// Users this workload asks slates for (probe sample in a traced run).
    pub sample_users: Vec<u32>,
    /// Span root name of this workload's traced operation.
    pub trace_root: &'static str,
    /// Restart only: the per-cycle `proc.spawn` span ids, so the traced
    /// run can lay the in-process estimates into them afterwards.
    pub spawn_spans: Vec<(u32, u64)>,
    /// Every traced call into the fleet, so the traced run can lay what
    /// the probes say a request costs into each once they have run.
    pub fleet_calls: Vec<FleetCall>,
}

/// One traced router call (a container span, see `trace.rs`).
pub struct FleetCall {
    pub span: u32,
    pub req: u64,
    /// Request/response pairs it exchanged with members.
    pub requests: usize,
    /// It was a routed recommend (`router.rec_self_us` applies).
    pub recommend: bool,
    /// Events it carried (each is appended to a WAL).
    pub events: usize,
}

impl Outcome {
    fn new(trace_root: &'static str) -> Self {
        Self {
            windows: Vec::new(),
            phases: Vec::new(),
            ops: OpsDigest::new(),
            slates: SlateDigest::new(),
            late_ms: Vec::new(),
            expect_events: 0,
            expect_recommends: 0,
            ledger: None,
            replay: Vec::new(),
            sample_users: Vec::new(),
            trace_root,
            spawn_spans: Vec::new(),
            fleet_calls: Vec::new(),
        }
    }

    fn phase(&mut self, name: &'static str, sent: u64, failed: u64) {
        self.phases.push(Phase { name, sent, failed });
    }

    fn remember(&mut self, events: &[(u32, u32)]) {
        let room = SHADOW_PREFIX_CAP.saturating_sub(self.replay.len());
        self.replay.extend(events.iter().take(room));
    }

    /// Start counting: from here on every op sent is added to the
    /// expectation the servers' own counters are checked against.
    fn ledger_open(&mut self, fleet: &mut Fleet) -> Result<(), String> {
        self.ledger = Some(fleet.stats()?);
        Ok(())
    }

    /// Accounting check: after a flush, the servers must have counted
    /// exactly the events and recommendations sent since `ledger_open`.
    fn ledger_close(&mut self, fleet: &mut Fleet) -> Result<(), String> {
        let before = self.ledger.take().expect("ledger_open was called");
        fleet
            .router()
            .flush()
            .map_err(|e| format!("accounting flush: {e}"))?;
        let after = fleet.stats()?;
        let mut failed = 0u64;
        for (what, got, want) in [
            ("events", after.events - before.events, self.expect_events),
            (
                "recommends",
                after.recommends - before.recommends,
                self.expect_recommends,
            ),
        ] {
            if got != want {
                failed += 1;
                eprintln!("FAIL accounting: the servers counted {got} {what}, {want} were sent");
            }
        }
        self.phase("accounting", 2, failed);
        Ok(())
    }

    pub fn attempted(&self) -> u64 {
        self.phases.iter().map(|p| p.sent).sum()
    }

    pub fn failed(&self) -> u64 {
        self.phases.iter().map(|p| p.failed).sum()
    }
}

/// Measured windows of `per_window` ops when `total` are to be sent. A
/// traced run measures one window untraced and one traced, so the cost
/// of tracing is itself a reported number.
fn windows(traced: bool, total: usize, per_window: usize) -> usize {
    if traced {
        2
    } else {
        (total / per_window).max(1)
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Name a failure on stderr, at most a handful per kind so a dead
/// connection does not bury the first cause.
fn complain(count: u64, what: &str) {
    if count <= 5 {
        eprintln!("FAIL {what}");
    }
}

/// Check one slate, fold it into the digest; `true` when it is valid.
fn take_slate(
    out: &mut SlateDigest,
    user: u32,
    resp: &RecResponse,
    k: usize,
    n_items: usize,
) -> bool {
    out.slate(user, &resp.items);
    match slate_problem(resp, k, n_items) {
        None => true,
        Some(why) => {
            eprintln!("FAIL slate for user {user}: {why}");
            false
        }
    }
}

/// Mean per-event ingest cost on each shard between two stats samples:
/// `(events, infer_ms, identify_ms)` per shard id.
pub fn ingest_cost_per_shard(before: &ServingStats, after: &ServingStats) -> Vec<(u64, f64, f64)> {
    after
        .shards
        .iter()
        .map(|a| {
            let sum = |t: &sccf_util::TimingStats| t.mean_ms() * t.count() as f64;
            let (e0, i0, d0) = before
                .shards
                .iter()
                .find(|b| b.shard == a.shard && b.retired == a.retired)
                .map_or((0, 0.0, 0.0), |b| {
                    (b.events, sum(&b.timings.infer), sum(&b.timings.identify))
                });
            (
                a.events - e0,
                sum(&a.timings.infer) - i0,
                sum(&a.timings.identify) - d0,
            )
        })
        .collect()
}

/// Mean `(infer + identify, infer, identify)` ms per ingested event on
/// `member` (its shards are consecutive global ids).
fn per_event_cost(per_shard: &[(u64, f64, f64)], member: usize) -> (f64, f64, f64) {
    let (n, infer, ident) = per_shard
        .iter()
        .skip(member * SHARDS_PER_MEMBER)
        .take(SHARDS_PER_MEMBER)
        .fold((0u64, 0.0, 0.0), |a, s| (a.0 + s.0, a.1 + s.1, a.2 + s.2));
    if n == 0 {
        (0.0, 0.0, 0.0)
    } else {
        let n = n as f64;
        ((infer + ident) / n, infer / n, ident / n)
    }
}

// ------------------------------------------------------------ mixed_open

struct Tick {
    events: Vec<(u32, u32)>,
    writers: Vec<u32>,
}

fn make_ticks(gen: &mut Gen, n_users: u32, n_items: u32, count: usize) -> Vec<Tick> {
    (0..count)
        .map(|_| {
            let events = gen.events(n_users, n_items, EVENTS_PER_TICK);
            let mut writers: Vec<u32> = Vec::with_capacity(SLATES_PER_TICK);
            for &(u, _) in &events {
                if writers.len() < SLATES_PER_TICK && !writers.contains(&u) {
                    writers.push(u);
                }
            }
            Tick { events, writers }
        })
        .collect()
}

/// What a traced tick needs once the window's stats delta is known.
struct TracedTick {
    ingest_span: u32,
    rec_span: u32,
    req: u64,
    events_per_member: Vec<usize>,
    /// `(member, infer_ms, identify_ms)` per slate.
    slate_costs: Vec<(usize, f64, f64)>,
}

pub fn mixed_open(
    fleet: &mut Fleet,
    seed: u64,
    seconds: u64,
    mut tracer: Option<&mut Tracer>,
) -> Result<Outcome, String> {
    let (n_users, n_items) = (fleet.spec.n_users as u32, fleet.spec.n_items as u32);
    let ticks_per_window = MIXED_WINDOW_TICKS;
    let n_windows = windows(
        tracer.is_some(),
        (seconds * 1_000 / TICK_MS) as usize,
        ticks_per_window,
    );
    let warm = make_ticks(
        &mut Gen::new(seed, streams::WARMUP),
        n_users,
        n_items,
        MIXED_WARMUP_TICKS,
    );
    let measured = make_ticks(
        &mut Gen::new(seed, streams::MEASURED),
        n_users,
        n_items,
        ticks_per_window * n_windows,
    );
    let query = RecQuery::top(SLATE_K);
    let mut out = Outcome::new("tick");
    out.ledger_open(fleet)?;
    let members = fleet.router().topology().members().len();

    let tick_len = Duration::from_millis(TICK_MS);
    let (mut sent, mut bad) = (0u64, 0u64);
    let (mut warm_sent, mut warm_bad) = (0u64, 0u64);
    let mut traced: Vec<TracedTick> = Vec::new();
    let mut stats_before_traced: Option<ServingStats> = None;

    // Segment 0 is the warm-up, segments 1.. are the measured windows,
    // each on its own fixed schedule.
    let segments = std::iter::once(&warm[..]).chain(measured.chunks(ticks_per_window));
    let mut req = 0u64;
    for (seg, ticks) in segments.enumerate() {
        let in_warmup = seg == 0;
        let trace_this = tracer.is_some() && seg == n_windows;
        if trace_this {
            stats_before_traced = Some(fleet.stats()?);
        }
        let mut window = Window::default();
        let t0 = Instant::now() + Duration::from_millis(5);
        let mut last_done = t0;
        for (i, tick) in ticks.iter().enumerate() {
            req += 1;
            let due = t0 + tick_len * i as u32;
            let now = Instant::now();
            if now < due {
                std::thread::sleep(due - now);
            }
            let started = Instant::now();
            out.ops.events(&tick.events);
            out.ops.recommends(&tick.writers, SLATE_K);
            out.remember(&tick.events);
            let ingested = fleet.router().ingest_batch(&tick.events);
            let mid = Instant::now();
            let slates = fleet.router().recommend_many(&tick.writers, &query);
            let done = Instant::now();
            last_done = done;
            out.expect_events += tick.events.len() as u64;
            out.expect_recommends += tick.writers.len() as u64;

            let ops = (tick.events.len() + tick.writers.len()) as u64;
            let mut tick_bad = 0u64;
            match &ingested {
                Ok(n) if *n == tick.events.len() as u64 => {}
                Ok(n) => {
                    tick_bad += tick.events.len() as u64 - n.min(&(tick.events.len() as u64));
                    complain(
                        bad + tick_bad,
                        &format!("tick {req}: {n} of {} events acked", tick.events.len()),
                    );
                }
                Err(e) => {
                    tick_bad += tick.events.len() as u64;
                    complain(bad + tick_bad, &format!("tick {req}: ingest_batch: {e}"));
                }
            }
            let e2s = ms(done - due);
            let mut good_slates = 0u64;
            match &slates {
                Ok(slates) => {
                    for (&u, s) in tick.writers.iter().zip(slates) {
                        if take_slate(&mut out.slates, u, s, SLATE_K, n_items as usize) {
                            good_slates += u64::from(e2s <= SLO_MS);
                        } else {
                            tick_bad += 1;
                        }
                    }
                }
                Err(e) => {
                    tick_bad += tick.writers.len() as u64;
                    complain(bad + tick_bad, &format!("tick {req}: recommend_many: {e}"));
                }
            }
            if in_warmup {
                warm_sent += ops;
                warm_bad += tick_bad;
                continue;
            }
            sent += ops;
            bad += tick_bad;
            out.late_ms.push(ms(started - due));
            // Every slate of the tick arrived with the same reply wave.
            window
                .lat_ms
                .extend(std::iter::repeat_n(e2s, tick.writers.len()));
            window.good += good_slates;

            if trace_this {
                let tr = tracer.as_deref_mut().expect("trace_this implies a tracer");
                let root = tr.client("tick", due, done, None, req);
                tr.client("loadgen.late", due, started, Some(root), req);
                let ingest_span =
                    tr.container("router.ingest_batch", started, mid, Some(root), req);
                let rec_span = tr.container("router.recommend_many", mid, done, Some(root), req);
                let mut events_per_member = vec![0usize; members];
                for &(u, _) in &tick.events {
                    events_per_member[fleet.router().owner_of(u)] += 1;
                }
                let mut asked = vec![false; members];
                for &u in &tick.writers {
                    asked[fleet.router().owner_of(u)] = true;
                }
                out.fleet_calls.push(FleetCall {
                    span: ingest_span,
                    req,
                    requests: events_per_member.iter().filter(|&&n| n > 0).count(),
                    recommend: false,
                    events: tick.events.len(),
                });
                out.fleet_calls.push(FleetCall {
                    span: rec_span,
                    req,
                    requests: asked.iter().filter(|&&a| a).count(),
                    recommend: true,
                    events: 0,
                });
                let slate_costs = match &slates {
                    Ok(slates) => tick
                        .writers
                        .iter()
                        .zip(slates)
                        .map(|(&u, s)| {
                            (
                                fleet.router().owner_of(u),
                                s.timing.infer_ms,
                                s.timing.identify_ms,
                            )
                        })
                        .collect(),
                    Err(_) => Vec::new(),
                };
                traced.push(TracedTick {
                    ingest_span,
                    rec_span,
                    req,
                    events_per_member,
                    slate_costs,
                });
            }
        }
        if !in_warmup {
            window.wall_s = (last_done - t0).as_secs_f64();
            out.windows.push(window);
        }
    }
    out.phase("warmup", warm_sent, warm_bad);
    out.phase("measured", sent, bad);

    // Lay the server-side work into each traced tick's two calls. The
    // shards start on the tick's events while `ingest_batch` still waits
    // for its acknowledgements; what they have not finished by then
    // stands in their member's FIFO in front of the slates. The whole
    // fleet time-shares one CPU (`affinity.rs`), so the members' work
    // adds up instead of overlapping: the chain laid in is the sum over
    // members. The events' cost is an estimate (the
    // window's mean per-event cost from the servers' own counters); the
    // slates' cost is what each reply carried.
    if let (Some(tr), Some(before)) = (tracer, stats_before_traced) {
        let after = fleet.stats()?;
        let per_shard = ingest_cost_per_shard(&before, &after);
        for t in &traced {
            let queued: f64 = (0..members)
                .map(|m| t.events_per_member[m] as f64 * per_event_cost(&per_shard, m).0)
                .sum();
            let (infer, ident) = t
                .slate_costs
                .iter()
                .fold((0.0, 0.0), |acc, c| (acc.0 + c.1, acc.1 + c.2));
            let behind = tr.lay_at_end(
                t.ingest_span,
                t.req,
                &[("core.ingest_during_call", queued * 1e6, Src::Estimate)],
            )[0];
            let left = tr.lay_at_end(
                t.rec_span,
                t.req,
                &[
                    ("core.ingest_behind_slate", behind, Src::Estimate),
                    ("core.rec_infer", infer * 1e6, Src::Reply),
                    ("core.rec_identify", ident * 1e6, Src::Reply),
                ],
            );
            tr.over_attributed(t.rec_span, &left);
        }
    }
    out.sample_users = measured
        .iter()
        .flat_map(|t| t.writers.iter().copied())
        .take(PROBE_SAMPLES)
        .collect();
    out.ledger_close(fleet)?;
    Ok(out)
}

// --------------------------------------------------------- ingest_closed

type Call = Vec<Vec<(u32, u32)>>;

fn make_calls(gen: &mut Gen, n_users: u32, n_items: u32, count: usize) -> Vec<Call> {
    (0..count)
        .map(|_| {
            (0..INGEST_BATCHES_PER_CALL)
                .map(|_| gen.events(n_users, n_items, INGEST_BATCH))
                .collect()
        })
        .collect()
}

pub fn ingest_closed(
    fleet: &mut Fleet,
    seed: u64,
    seconds: u64,
    mut tracer: Option<&mut Tracer>,
) -> Result<Outcome, String> {
    let (n_users, n_items) = (fleet.spec.n_users as u32, fleet.spec.n_items as u32);
    let calls_per_window = INGEST_WINDOW_CALLS;
    let total_calls = (seconds as f64 * INGEST_CALLS_PER_SECOND).round() as usize;
    let n_windows = windows(tracer.is_some(), total_calls, calls_per_window);
    let events_per_call = (INGEST_BATCH * INGEST_BATCHES_PER_CALL) as u64;
    let warm = make_calls(
        &mut Gen::new(seed, streams::WARMUP),
        n_users,
        n_items,
        INGEST_WARMUP_CALLS,
    );
    let measured = make_calls(
        &mut Gen::new(seed, streams::MEASURED),
        n_users,
        n_items,
        calls_per_window * n_windows,
    );
    let mut out = Outcome::new("window");
    out.ledger_open(fleet)?;
    let members = fleet.router().topology().members().len();

    let send = |fleet: &mut Fleet,
                out: &mut Outcome,
                call: &Call,
                bad: &mut u64|
     -> (Instant, Instant, u64) {
        for batch in call {
            out.ops.events(batch);
            out.remember(batch);
        }
        out.expect_events += events_per_call;
        let t = Instant::now();
        let acked = fleet.router().ingest_batches(call);
        let done = Instant::now();
        let acked = match acked {
            Ok(n) => n.min(events_per_call),
            Err(e) => {
                complain(*bad + 1, &format!("ingest_batches: {e}"));
                0
            }
        };
        if acked != events_per_call {
            complain(
                *bad + 1,
                &format!("{acked} of {events_per_call} events acked"),
            );
        }
        *bad += events_per_call - acked;
        (t, done, acked)
    };
    let flush = |fleet: &mut Fleet, bad: &mut u64| -> (Instant, Instant) {
        let t = Instant::now();
        if let Err(e) = fleet.router().flush() {
            *bad += 1;
            complain(*bad, &format!("flush: {e}"));
        }
        (t, Instant::now())
    };

    let mut warm_bad = 0u64;
    for call in &warm {
        send(fleet, &mut out, call, &mut warm_bad);
    }
    flush(fleet, &mut warm_bad);
    let warm_sent = warm.len() as u64 * events_per_call + 1;
    out.phase("warmup", warm_sent, warm_bad);

    let mut bad = 0u64;
    for (w, calls) in measured.chunks(calls_per_window).enumerate() {
        let trace_this = tracer.is_some() && w == n_windows - 1;
        let before = if trace_this {
            Some(fleet.stats()?)
        } else {
            None
        };
        let mut window = Window::default();
        let mut call_spans: Vec<(Instant, Instant, Vec<usize>)> = Vec::new();
        let start = Instant::now();
        for call in calls {
            let (t, done, acked) = send(fleet, &mut out, call, &mut bad);
            window.lat_ms.push(ms(done - t));
            window.good += acked;
            if trace_this {
                let mut per_member = vec![0usize; members];
                for &(u, _) in call.iter().flatten() {
                    per_member[fleet.router().owner_of(u)] += 1;
                }
                call_spans.push((t, done, per_member));
            }
        }
        let (flush_start, end) = flush(fleet, &mut bad);
        window.wall_s = (end - start).as_secs_f64();
        out.windows.push(window);

        // Each call's span gets the engine work its events caused laid
        // in, from the servers' own per-shard counters over this window
        // (an estimate per call, exact in sum). The fleet time-shares one
        // CPU (`affinity.rs`), so the two members' work adds up. A call
        // returns once its batches are acknowledged, which can be before
        // the shards have worked through them: what does not fit into a
        // call is carried into the next one and finally into the flush,
        // which waits for the queues to drain.
        if let (Some(tr), Some(before)) = (tracer.as_deref_mut(), before) {
            let after = fleet.stats()?;
            let per_shard = ingest_cost_per_shard(&before, &after);
            let req = w as u64;
            let root = tr.client("window", start, end, None, req);
            let mut carried = [0.0f64; 2];
            let mut lay = |tr: &mut Tracer, span: u32, engine: [f64; 2]| {
                let left = tr.lay_at_end(
                    span,
                    req,
                    &[
                        (
                            "core.ingest_infer",
                            (engine[0] + carried[0]) * 1e6,
                            Src::Estimate,
                        ),
                        (
                            "core.ingest_identify",
                            (engine[1] + carried[1]) * 1e6,
                            Src::Estimate,
                        ),
                    ],
                );
                carried = [left[0] / 1e6, left[1] / 1e6];
            };
            for (t, done, per_member) in call_spans {
                let span = tr.container("router.ingest_batches", t, done, Some(root), req);
                out.fleet_calls.push(FleetCall {
                    span,
                    req,
                    requests: INGEST_BATCHES_PER_CALL * members,
                    recommend: false,
                    events: per_member.iter().sum(),
                });
                let engine = (0..members)
                    .map(|m| {
                        let (_, infer, ident) = per_event_cost(&per_shard, m);
                        let n = per_member[m] as f64;
                        [n * infer, n * ident]
                    })
                    .fold([0.0, 0.0], |a, b| [a[0] + b[0], a[1] + b[1]]);
                lay(tr, span, engine);
            }
            let span = tr.container("router.flush", flush_start, end, Some(root), req);
            out.fleet_calls.push(FleetCall {
                span,
                req,
                requests: members,
                recommend: false,
                events: 0,
            });
            lay(tr, span, [0.0, 0.0]);
            tr.over_attributed(span, &carried.map(|ms| ms * 1e6));
        }
    }
    let sent = measured.len() as u64 * events_per_call + n_windows as u64;
    out.phase("measured", sent, bad);

    // Digest a fixed sample of slates over the state the run left
    // behind: equal digests mean equal state, not just equal counts.
    let mut sample = Gen::new(seed, streams::SAMPLE_USERS);
    out.sample_users = (0..PROBE_SAMPLES)
        .map(|_| sample.popular(n_users))
        .collect();
    let pinned: Vec<u32> = out.sample_users[..PIN_USERS].to_vec();
    out.ops.recommends(&pinned, SLATE_K);
    out.expect_recommends += pinned.len() as u64;
    let wrong = match fleet
        .router()
        .recommend_many(&pinned, &RecQuery::top(SLATE_K))
    {
        Ok(slates) => pinned
            .iter()
            .zip(&slates)
            .filter(|(&u, s)| !take_slate(&mut out.slates, u, s, SLATE_K, n_items as usize))
            .count(),
        Err(e) => {
            eprintln!("FAIL verify slates: {e}");
            pinned.len()
        }
    };
    out.phase("verify", pinned.len() as u64, wrong as u64);
    out.ledger_close(fleet)?;
    Ok(out)
}

// -------------------------------------------------------------- rec_wire

/// One op in this many is traced in the traced window — a span per op
/// would make the trace file larger than everything else together.
const REC_TRACE_EVERY: usize = 8;

pub fn rec_wire(
    fleet: &mut Fleet,
    seed: u64,
    seconds: u64,
    mut tracer: Option<&mut Tracer>,
) -> Result<Outcome, String> {
    let (n_users, n_items) = (fleet.spec.n_users as u32, fleet.spec.n_items);
    let per_window = REC_WINDOW_OPS;
    let total_ops = (seconds as f64 * REC_PER_SECOND) as usize;
    let n_windows = windows(tracer.is_some(), total_ops, per_window);
    let query = RecQuery::top(SLATE_K);
    let mut out = Outcome::new("rec");
    out.ledger_open(fleet)?;
    let mut warm_gen = Gen::new(seed, streams::WARMUP);
    let mut gen = Gen::new(seed, streams::MEASURED);

    let one = |fleet: &mut Fleet, out: &mut Outcome, user: u32, bad: &mut u64| {
        out.ops.recommends(&[user], SLATE_K);
        out.expect_recommends += 1;
        let t = Instant::now();
        let resp = fleet.router().try_recommend(user, &query);
        let done = Instant::now();
        let resp = match resp {
            Ok(r) if take_slate(&mut out.slates, user, &r, SLATE_K, n_items) => Some(r),
            Ok(_) => {
                *bad += 1;
                None
            }
            Err(e) => {
                *bad += 1;
                complain(*bad, &format!("try_recommend({user}): {e}"));
                None
            }
        };
        (t, done, resp)
    };

    let mut warm_bad = 0u64;
    for _ in 0..REC_WARMUP {
        let user = warm_gen.uniform(n_users);
        one(fleet, &mut out, user, &mut warm_bad);
    }
    out.phase("warmup", REC_WARMUP as u64, warm_bad);

    let mut bad = 0u64;
    for w in 0..n_windows {
        let trace_this = tracer.is_some() && w == n_windows - 1;
        let mut window = Window {
            lat_ms: Vec::with_capacity(per_window),
            ..Window::default()
        };
        let start = Instant::now();
        for i in 0..per_window {
            let user = gen.uniform(n_users);
            if out.sample_users.len() < PROBE_SAMPLES {
                out.sample_users.push(user);
            }
            let iter_start = Instant::now();
            let before = bad;
            let (t, done, resp) = one(fleet, &mut out, user, &mut bad);
            window.lat_ms.push(ms(done - t));
            window.good += u64::from(bad == before);
            if trace_this && i % REC_TRACE_EVERY == 0 {
                let tr = tracer.as_deref_mut().expect("trace_this implies a tracer");
                let req = (w * per_window + i) as u64;
                let root = tr.client("rec", iter_start, Instant::now(), None, req);
                let call = tr.container("router.try_recommend", t, done, Some(root), req);
                out.fleet_calls.push(FleetCall {
                    span: call,
                    req,
                    requests: 1,
                    recommend: true,
                    events: 0,
                });
                if let Some(r) = resp {
                    let left = tr.lay_at_end(
                        call,
                        req,
                        &[
                            ("core.rec_infer", r.timing.infer_ms * 1e6, Src::Reply),
                            ("core.rec_identify", r.timing.identify_ms * 1e6, Src::Reply),
                        ],
                    );
                    tr.over_attributed(call, &left);
                }
            }
        }
        window.wall_s = start.elapsed().as_secs_f64();
        out.windows.push(window);
    }
    let sent = (per_window * n_windows) as u64;
    out.phase("measured", sent, bad);
    out.ledger_close(fleet)?;
    Ok(out)
}

// --------------------------------------------------------------- restart

/// One slate as `(item id, score bits)`.
type SlateBits = Vec<(u32, u32)>;

/// Slates of the pinned users plus the whole fleet's state bytes.
fn record(fleet: &mut Fleet, users: &[u32]) -> Result<(Vec<SlateBits>, Vec<u8>), String> {
    let slates = fleet
        .router()
        .recommend_many(users, &RecQuery::top(SLATE_K))
        .map_err(|e| format!("recording slates: {e}"))?;
    let state = fleet
        .router()
        .snapshot_state()
        .map_err(|e| format!("recording state: {e}"))?;
    Ok((slates.iter().map(slate_bits).collect(), state))
}

/// Events a state holds that another does not, per user, summed: what a
/// recovery lost of the durable stream.
fn events_lost(before: &[u8], after: &[u8]) -> Result<u64, String> {
    let b = decode_histories(before).map_err(|e| format!("decoding state: {e:?}"))?;
    let a = decode_histories(after).map_err(|e| format!("decoding state: {e:?}"))?;
    Ok(b.iter()
        .zip(a.iter().chain(std::iter::repeat(&Vec::new())))
        .map(|(b, a)| b.len().saturating_sub(a.len()) as u64)
        .sum())
}

pub fn restart(
    fleet: &mut Fleet,
    seed: u64,
    seconds: u64,
    mut tracer: Option<&mut Tracer>,
) -> Result<Outcome, String> {
    const VICTIM: usize = 0;
    let (n_users, n_items) = (fleet.spec.n_users as u32, fleet.spec.n_items as u32);
    let total_cycles = (seconds as f64 / RESTART_SECONDS_PER_CYCLE).round() as usize;
    let n_windows = windows(tracer.is_some(), total_cycles, RESTART_WINDOW_CYCLES);
    let cycles = n_windows * RESTART_WINDOW_CYCLES;
    let mut out = Outcome::new("recover");
    out.ledger_open(fleet)?;
    let mut gen = Gen::new(seed, streams::PREFIX);
    let mut bad = 0u64;
    let mut sent = 0u64;

    let mut ingest =
        |fleet: &mut Fleet, out: &mut Outcome, n: usize, bad: &mut u64, sent: &mut u64| {
            let events = gen.events(n_users, n_items, n);
            out.ops.events(&events);
            out.remember(&events);
            out.expect_events += n as u64;
            *sent += n as u64;
            match fleet.router().ingest_batch(&events) {
                Ok(acked) if acked == n as u64 => {}
                Ok(acked) => {
                    *bad += n as u64 - acked.min(n as u64);
                    complain(*bad, &format!("{acked} of {n} events acked"));
                }
                Err(e) => {
                    *bad += n as u64;
                    complain(*bad, &format!("ingest_batch: {e}"));
                }
            }
        };
    let control =
        |out: &mut Outcome, tag: &str, res: Result<(), String>, bad: &mut u64, sent: &mut u64| {
            out.ops.control(tag);
            *sent += 1;
            if let Err(e) = res {
                *bad += 1;
                complain(*bad, &format!("{tag}: {e}"));
            }
        };

    // Prefix: state on both sides of a checkpoint, all of it durable.
    ingest(fleet, &mut out, RESTART_PREFIX_A, &mut bad, &mut sent);
    let r = fleet
        .router()
        .checkpoint_all()
        .map(|_| ())
        .map_err(|e| e.to_string());
    control(&mut out, "checkpoint_all", r, &mut bad, &mut sent);
    ingest(fleet, &mut out, RESTART_PREFIX_B, &mut bad, &mut sent);
    let r = fleet.router().wal_sync_all().map_err(|e| e.to_string());
    control(&mut out, "wal_sync_all", r, &mut bad, &mut sent);

    let mut sample = Gen::new(seed, streams::SAMPLE_USERS);
    let mut pinned: Vec<u32> = Vec::with_capacity(PIN_USERS);
    while pinned.len() < PIN_USERS {
        let u = sample.popular(n_users);
        if fleet.router().owner_of(u) == VICTIM && !pinned.contains(&u) {
            pinned.push(u);
        }
    }
    out.sample_users = pinned.clone();
    let query = RecQuery::top(SLATE_K);
    out.ops.recommends(&pinned, SLATE_K);
    out.expect_recommends += pinned.len() as u64;
    let (mut want_slates, mut want_state) = record(fleet, &pinned)?;
    out.phase("prefix", sent, bad);

    // The servers' op counters die with the victim, so the accounting
    // check for this workload covers the prefix only; the cycles are
    // checked by state instead (bytes and bits, below).
    out.ledger_close(fleet)?;
    let (mut c_sent, mut c_bad) = (0u64, 0u64);
    let mut window = Window::default();
    for cycle in 0..cycles {
        let req = cycle as u64;
        out.ops.control("kill");
        let t_kill = Instant::now();
        fleet.kill_member(VICTIM);
        let t_dead = Instant::now();
        let respawned = fleet.respawn_member(VICTIM);
        let t_up = Instant::now();
        c_sent += 1;
        let (spawn_s, reconnect_s) = match respawned {
            Ok(t) => t,
            Err(e) => {
                // Without the member nothing below can succeed; count
                // what the remaining cycles would have attempted too.
                eprintln!("FAIL cycle {cycle}: {e}");
                c_bad += 1;
                break;
            }
        };
        let t_tier = Instant::now();
        let installed = fleet.install_tier();
        let t_tier_done = Instant::now();
        control(&mut out, "install_tier", installed, &mut c_bad, &mut c_sent);
        out.ops.recommends(&pinned[..1], SLATE_K);
        let first_slate = fleet.router().try_recommend(pinned[0], &query);
        let t_first = Instant::now();
        c_sent += 1;
        match &first_slate {
            Ok(r) if slate_bits(r) == want_slates[0] => {}
            Ok(_) => {
                c_bad += 1;
                eprintln!(
                    "FAIL cycle {cycle}: first slate after recovery differs from before the kill"
                );
            }
            Err(e) => {
                c_bad += 1;
                eprintln!("FAIL cycle {cycle}: first slate: {e}");
            }
        }
        let recover_s = (t_first - t_kill).as_secs_f64();
        if window.lat_ms.len() == RESTART_WINDOW_CYCLES {
            out.windows.push(std::mem::take(&mut window));
        }
        window.lat_ms.push(recover_s * 1e3);
        window.wall_s += recover_s;
        window.good += 1;

        // A traced run traces its last window.
        let traced = cycle >= cycles - RESTART_WINDOW_CYCLES;
        if let Some(tr) = tracer.as_deref_mut().filter(|_| traced) {
            let root = tr.client("recover", t_kill, t_first, None, req);
            tr.client("proc.kill_and_reap", t_kill, t_dead, Some(root), req);
            let spawn_end = t_dead + Duration::from_secs_f64(spawn_s);
            let spawn = tr.container("proc.spawn_serve_shard", t_dead, spawn_end, Some(root), req);
            out.spawn_spans.push((spawn, req));
            tr.client(
                "router.reconnect",
                spawn_end,
                spawn_end + Duration::from_secs_f64(reconnect_s),
                Some(root),
                req,
            );
            let _ = t_up;
            tr.client("tier.install", t_tier, t_tier_done, Some(root), req);
            let first = tr.container("router.first_slate", t_tier_done, t_first, Some(root), req);
            out.fleet_calls.push(FleetCall {
                span: first,
                req,
                requests: 1,
                recommend: true,
                events: 0,
            });
            if let Ok(r) = &first_slate {
                let left = tr.lay_at_end(
                    first,
                    req,
                    &[
                        ("core.rec_infer", r.timing.infer_ms * 1e6, Src::Reply),
                        ("core.rec_identify", r.timing.identify_ms * 1e6, Src::Reply),
                    ],
                );
                tr.over_attributed(first, &left);
            }
        }

        // Everything acknowledged before the last `wal_sync_all` must
        // be back: the same state bytes, the same slate bits.
        out.ops.recommends(&pinned, SLATE_K);
        c_sent += pinned.len() as u64 + 1;
        match record(fleet, &pinned) {
            Ok((got_slates, got_state)) => {
                for (i, (got, want)) in got_slates.iter().zip(&want_slates).enumerate() {
                    if got != want {
                        c_bad += 1;
                        eprintln!(
                            "FAIL cycle {cycle}: user {}'s slate differs from before the kill",
                            pinned[i]
                        );
                    }
                }
                if got_state != want_state {
                    let lost = events_lost(&want_state, &got_state)?;
                    c_bad += lost.max(1);
                    eprintln!("FAIL cycle {cycle}: state differs after recovery, {lost} durable events lost");
                }
                for (u, s) in pinned.iter().zip(&got_slates) {
                    // Digest what came back, bit for bit.
                    let items: Vec<sccf_util::topk::Scored> = s
                        .iter()
                        .map(|&(id, bits)| sccf_util::topk::Scored {
                            id,
                            score: f32::from_bits(bits),
                        })
                        .collect();
                    out.slates.slate(*u, &items);
                }
            }
            Err(e) => {
                c_bad += pinned.len() as u64 + 1;
                eprintln!("FAIL cycle {cycle}: {e}");
            }
        }

        // More durable state for the next cycle to bring back.
        ingest(
            fleet,
            &mut out,
            RESTART_EVENTS_PER_CYCLE,
            &mut c_bad,
            &mut c_sent,
        );
        let r = fleet.router().wal_sync_all().map_err(|e| e.to_string());
        control(&mut out, "wal_sync_all", r, &mut c_bad, &mut c_sent);
        out.ops.recommends(&pinned, SLATE_K);
        (want_slates, want_state) = record(fleet, &pinned)?;
    }
    out.windows.push(window);
    out.phase("cycles", c_sent, c_bad);
    Ok(out)
}
