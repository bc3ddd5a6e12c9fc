//! The shard worker: one thread, one single-writer [`RealtimeEngine`],
//! one bounded FIFO queue of [`ShardMsg`]s. Everything the router asks
//! of a shard — events, queries, epoch exports, WAL bookkeeping — rides
//! that one queue, which is what makes every reply reflect every event
//! routed before the request.

use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::{bounded, Receiver, Sender};
use sccf_core::{GlobalNeighborSnapshot, RealtimeEngine};
use sccf_models::InductiveUiModel;
use sccf_util::topk::Scored;

use super::ShardReport;
use crate::api::{RecQuery, RecResponse, ServingError};
use crate::wal::{WalRecord, WalStatus, WalWriter};

/// What a worker does with each user right after exporting her blob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum AfterExport {
    /// Live-resharding handoff, source side: evict — the blob is now
    /// the only copy and travels to the user's new shard.
    Evict,
    /// Refresh collection: acknowledge the export against the engine's
    /// tier-dirty set (the blob feeds the snapshot being built, so the
    /// user is clean relative to it).
    AckTier,
    /// Diagnostic / fleet-level read: nothing is installed locally, so
    /// the local delta working set keeps its marks.
    Keep,
}

pub(super) enum ShardMsg {
    Event {
        /// Router-assigned global sequence number; logged to the WAL
        /// (when durability is armed) before the event is applied.
        seq: u64,
        user: u32,
        item: u32,
    },
    Recommend {
        user: u32,
        /// Shared per wave: `recommend_many` sends one allocation's
        /// worth of query (exclusion list included) to any number of
        /// users.
        query: Arc<RecQuery>,
        reply: Sender<Result<RecResponse, ServingError>>,
    },
    /// Barrier: the worker replies once everything queued before this
    /// message has been processed.
    Drain { reply: Sender<()> },
    /// Live counters + timings without stopping the worker.
    Stats { reply: Sender<ShardReport> },
    /// The shard's owned `(global user, history)` pairs — the snapshot
    /// path merges these into one whole-population artifact.
    Export { reply: Sender<Vec<(u32, Vec<u32>)>> },
    /// Export each listed owned user's state blob
    /// ([`RealtimeEngine::export_user`]), then treat her as `then`
    /// says. Queued FIFO, so every event ingested for these users
    /// before this message is applied before the export.
    ExportUsers {
        users: Vec<u32>,
        then: AfterExport,
        reply: Sender<Vec<Vec<u8>>>,
    },
    /// Live-resharding handoff, target side: adopt the carried users
    /// ([`RealtimeEngine::import_user`]). No reply — the bounded queue
    /// provides backpressure, and FIFO ordering guarantees the users
    /// exist before any later event or recommendation reaches them.
    ImportUsers { blobs: Vec<Vec<u8>> },
    /// Quiesce step: re-order the shard's compact slots into the
    /// canonical layout so post-migration state is bit-identical to an
    /// offline restore. Replies when done (migration barrier).
    Canonicalize { reply: Sender<()> },
    /// The shard's current tier-dirty users (sorted; a peek — marks
    /// are cleared per user at export time). Rides the FIFO queue, so
    /// the set reflects every event routed before it: the delta
    /// refresh plan.
    TierDirty { reply: Sender<Vec<u32>> },
    /// Re-mark users tier-dirty: an aborted refresh epoch already
    /// acknowledged some exports whose snapshot will never install, so
    /// the marks must come back or the next delta silently ships stale
    /// rows.
    TierMark { users: Vec<u32> },
    /// Swap this worker onto a fresh bounded queue (a reshard changed
    /// `queue_capacity`). Always the **last** message on the old
    /// queue — the router drops the old sender right after — so FIFO
    /// order across the swap is total: everything sent on the old
    /// queue precedes everything sent on the new one.
    SwapQueue {
        rx: Receiver<ShardMsg>,
        capacity: usize,
    },
    /// Install a global snapshot (`None` disables the two-tier path).
    /// One `Arc` store on the worker — no reply, no stall; FIFO
    /// ordering makes the swap visible to every request routed after
    /// it.
    TierInstall {
        tier: Option<Arc<GlobalNeighborSnapshot>>,
    },
    /// Current merged Eq. 11 neighborhood of an owned user
    /// (diagnostics: the cross-shard equivalence tests and the quality
    /// bench read neighborhoods through this).
    Neighbors {
        user: u32,
        reply: Sender<Result<Vec<Scored>, ServingError>>,
    },
    /// Arm durability on this worker: every later `Event` is appended
    /// to `wal` — grouped with the events queued behind it, one write
    /// per group — *before* it is applied. `dirty` re-marks users whose
    /// WAL records were replayed by recovery, so the next incremental
    /// checkpoint covers them.
    Durability { wal: WalWriter, dirty: Vec<u32> },
    /// WAL bookkeeping: optionally fsync, then report the writer's
    /// status (`None` when durability was never armed here). Rides the
    /// FIFO queue, so the status reflects every event routed before it.
    Wal {
        sync: bool,
        reply: Sender<Option<WalStatus>>,
    },
    /// Checkpoint export: the shard's dirty users' state blobs
    /// (`full` = every owned user instead — the epoch-0 export). The
    /// dirty set is drained either way. Rides the FIFO queue, so the
    /// export reflects every event routed before it.
    CheckpointExport {
        full: bool,
        reply: Sender<Vec<Vec<u8>>>,
    },
    /// WAL segment rotation after a checkpoint ([`WalWriter::rotate`]):
    /// seal the active segment when `seal_upto` (the new watermark)
    /// covers it, prune sealed segments `<= prune_upto` (the previous
    /// watermark). Replies `(sealed, pruned)`; `(0, 0)` when durability
    /// was never armed here.
    WalRotate {
        seal_upto: u64,
        prune_upto: u64,
        reply: Sender<(u64, u64)>,
    },
}

/// What a shard worker thread hands back when it exits.
pub(super) type WorkerExit<M> = (RealtimeEngine<M>, ShardReport);

/// Start shard `shard`'s worker over `engine` behind a fresh bounded
/// queue of `capacity` messages.
pub(super) fn spawn_worker<M: InductiveUiModel + 'static>(
    shard: usize,
    engine: RealtimeEngine<M>,
    capacity: usize,
) -> (Sender<ShardMsg>, JoinHandle<WorkerExit<M>>) {
    let (tx, rx) = bounded::<ShardMsg>(capacity);
    let handle = std::thread::Builder::new()
        .name(format!("sccf-shard-{shard}"))
        .spawn(move || shard_worker(shard, engine, rx, capacity))
        .expect("spawn shard worker");
    (tx, handle)
}

/// Join a worker thread, re-raising its panic (if it died of one) on
/// the caller so the root cause reaches the caller's logs.
pub(super) fn join_worker<M: InductiveUiModel>(handle: JoinHandle<WorkerExit<M>>) -> WorkerExit<M> {
    handle
        .join()
        .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
}

/// Export `users`' state blobs. The router only ever lists users this
/// shard owns (planned from its own ring, or enumerated from this very
/// engine), so a failure is a router bug — surface it loudly.
fn export_blobs<M: InductiveUiModel>(
    shard: usize,
    engine: &mut RealtimeEngine<M>,
    users: &[u32],
    then: AfterExport,
) -> Vec<Vec<u8>> {
    users
        .iter()
        .map(|&u| {
            let blob = engine
                .export_user(u)
                .unwrap_or_else(|e| panic!("shard {shard}: export {e}"));
            match then {
                AfterExport::Evict => engine
                    .evict_user(u)
                    .unwrap_or_else(|e| panic!("shard {shard}: evict {e}")),
                AfterExport::AckTier => engine.ack_tier_export(u),
                AfterExport::Keep => {}
            }
            blob
        })
        .collect()
}

fn shard_worker<M: InductiveUiModel>(
    shard: usize,
    mut engine: RealtimeEngine<M>,
    mut rx: Receiver<ShardMsg>,
    mut queue_capacity: usize,
) -> WorkerExit<M> {
    let mut events = 0u64;
    let mut recommends = 0u64;
    // Armed by a `Durability` message; `None` = the historical
    // in-memory-only behavior.
    let mut walw: Option<WalWriter> = None;
    let report = |engine: &RealtimeEngine<M>, events, recommends, queue_capacity| ShardReport {
        shard,
        events,
        recommends,
        timings: engine.timings().clone(),
        retired: false,
        queue_capacity,
        tier_dirty: engine.tier_dirty_count() as u64,
    };
    // The events of one WAL write group, reused from group to group.
    let mut group: Vec<WalRecord> = Vec::new();
    // A message taken off the queue while a group was drained that is
    // not an `Event`: handled before anything else is received, so
    // FIFO order holds across the drain.
    let mut held: Option<ShardMsg> = None;
    // Ends when every sender is dropped and the queue is drained — the
    // graceful-shutdown path.
    while let Some(msg) = held.take().or_else(|| rx.recv().ok()) {
        match msg {
            ShardMsg::Event { seq, user, item } => {
                group.clear();
                group.push(WalRecord { seq, user, item });
                if let Some(w) = walw.as_mut() {
                    // Group commit: the events already queued behind
                    // this one join it, up to the WAL's next fsync
                    // point and at most one queue's worth, and the
                    // whole group is one write. Write-ahead holds for
                    // each of them: every record is in the log before
                    // any state changes, or a crash between the two
                    // could acknowledge an event that recovery cannot
                    // replay. An I/O failure here is unrecoverable for
                    // the durability contract — surface it loudly
                    // rather than serve un-logged state.
                    let bound = w.until_sync().min(queue_capacity);
                    while group.len() < bound {
                        match rx.try_recv() {
                            Ok(ShardMsg::Event { seq, user, item }) => {
                                group.push(WalRecord { seq, user, item });
                            }
                            Ok(other) => {
                                held = Some(other);
                                break;
                            }
                            Err(_) => break,
                        }
                    }
                    if let Err(e) = w.append_all(&group) {
                        panic!("shard {shard}: wal append: {e}");
                    }
                }
                for rec in &group {
                    // The router pre-validates ids, so an error here
                    // means a routing bug — surface it loudly.
                    if let Err(e) = engine.apply_event(rec.user, rec.item) {
                        panic!("shard {shard}: {e}");
                    }
                }
                events += group.len() as u64;
            }
            ShardMsg::Recommend { user, query, reply } => {
                let res = engine
                    .recommend_query(user, query.k, query.source, &query.exclude)
                    .map(|(items, timing)| RecResponse { items, timing })
                    .map_err(ServingError::from);
                // A dropped reply handle just means the requester gave up.
                let _ = reply.send(res);
                recommends += 1;
            }
            ShardMsg::Drain { reply } => {
                let _ = reply.send(());
            }
            ShardMsg::Stats { reply } => {
                let _ = reply.send(report(&engine, events, recommends, queue_capacity));
            }
            ShardMsg::Export { reply } => {
                let _ = reply.send(engine.export_histories());
            }
            ShardMsg::ExportUsers { users, then, reply } => {
                let _ = reply.send(export_blobs(shard, &mut engine, &users, then));
            }
            ShardMsg::ImportUsers { blobs } => {
                for blob in &blobs {
                    if let Err(e) = engine.import_user(blob) {
                        panic!("shard {shard}: import {e}");
                    }
                }
            }
            ShardMsg::Canonicalize { reply } => {
                engine.canonicalize_owned();
                let _ = reply.send(());
            }
            ShardMsg::TierDirty { reply } => {
                let _ = reply.send(engine.tier_dirty_users());
            }
            ShardMsg::TierMark { users } => {
                for u in users {
                    engine.mark_tier_dirty(u);
                }
            }
            ShardMsg::SwapQueue {
                rx: new_rx,
                capacity,
            } => {
                // The router dropped the old sender right after this
                // message, so the old queue is fully drained: replace
                // it. FIFO order is preserved — everything sent on the
                // new queue was routed after everything processed above.
                rx = new_rx;
                queue_capacity = capacity;
            }
            ShardMsg::TierInstall { tier } => match tier {
                // The router checked the tier against the fleet before
                // the broadcast, so this install cannot be refused.
                Some(t) => {
                    let _ = engine.install_global_tier(t);
                }
                None => engine.clear_global_tier(),
            },
            ShardMsg::Neighbors { user, reply } => {
                let _ = reply.send(engine.neighbors_of(user).map_err(ServingError::from));
            }
            ShardMsg::Durability { wal, dirty } => {
                for u in dirty {
                    engine.mark_dirty(u);
                }
                walw = Some(wal);
            }
            ShardMsg::Wal { sync, reply } => {
                if sync {
                    if let Some(w) = walw.as_mut() {
                        if let Err(e) = w.sync() {
                            panic!("shard {shard}: wal sync: {e}");
                        }
                    }
                }
                let _ = reply.send(walw.as_ref().map(|w| w.status()));
            }
            ShardMsg::CheckpointExport { full, reply } => {
                // Drain the dirty set either way: a full export
                // subsumes every pending incremental entry.
                let drained = engine.drain_dirty_users();
                let users: Vec<u32> = if full { engine.owned_users() } else { drained };
                let _ = reply.send(export_blobs(shard, &mut engine, &users, AfterExport::Keep));
            }
            ShardMsg::WalRotate {
                seal_upto,
                prune_upto,
                reply,
            } => {
                let out = match walw.as_mut() {
                    // Rotation failing means the durability contract's
                    // disk bound is broken — surface it loudly, like
                    // every other WAL I/O failure on this thread.
                    Some(w) => w
                        .rotate(seal_upto, prune_upto)
                        .unwrap_or_else(|e| panic!("shard {shard}: wal rotate: {e}")),
                    None => (0, 0),
                };
                let _ = reply.send(out);
            }
        }
    }
    // Graceful exit: push the WAL tail to stable storage so a clean
    // shutdown never leaves an unsynced (losable) region behind.
    if let Some(w) = walw.as_mut() {
        if let Err(e) = w.sync() {
            panic!("shard {shard}: wal sync on exit: {e}");
        }
    }
    let report = report(&engine, events, recommends, queue_capacity);
    (engine, report)
}
