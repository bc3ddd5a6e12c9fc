//! The fleet's front end: a [`FleetRouter`] that speaks [`ServingApi`]
//! over the wire.
//!
//! The router holds one persistent [`Connection`] per fleet member and
//! the **global** [`HashRing`] of the topology — the same ring every
//! member slices — so its user→member routing agrees with each
//! server's user→shard routing by construction. Batched entry points
//! group work per member (one framed message per member per batch, not
//! per event), and per-user read-your-writes holds because one user
//! maps to one member and each connection is FIFO.
//!
//! **One admission rule.** Every request is admitted before anything
//! touches the wire, by the members' [`Admission`] — population,
//! catalog and whether ANN is served — as each member announced it in
//! its handshake; a member announcing another one is refused at
//! connect. It is the rule `RealtimeEngine` and `ShardedEngine` run,
//! with the member ring (which owns every user) as the placement, so a
//! bad request gets the same typed [`ServingError`] here as in one
//! process and costs no round trip.
//!
//! **One fan-out, two phases.** Every multi-member operation goes
//! through `FleetRouter::scatter`: *enqueue and write to every* target
//! (one blocking `write_all` per member, in member order), then
//! *collect in member order*. All members work concurrently; wall-clock
//! cost is ≈ the slowest member's round trip instead of the sum of all
//! of them. The blocking writes cannot deadlock: a connection is owed
//! at most [`DEFAULT_PIPELINE_DEPTH`] small acknowledgements when a
//! request is written, a `scatter` writes one request per member, and
//! each server's reader thread drains its socket independently of its
//! engine — so a member never stops reading because the router has not
//! started reading yet. This is the only transport; `tests/fleet.rs`
//! pins it against the single-process `ShardedEngine`.
//!
//! Data-plane fan-outs (ingest, recommend, user-state export) are
//! **strict**: one preflight checks every target's connection for
//! poison and frames every request before anything is queued on any
//! connection — a batch that cannot be delivered whole is applied
//! nowhere — and the first error wins.
//! Control-plane fan-outs (flush, WAL sync, checkpoint, stats,
//! snapshot, tier installs, shutdown) are **best-effort across all
//! members**: every member is contacted even after an earlier member
//! fails, and the failures come back as one combined [`ServingError`] —
//! a shutdown can no longer leak live processes because member 0's
//! socket died first.
//!
//! On top of the `ServingApi` surface the router exposes the
//! fleet-orchestration verbs the in-process engine does on its own:
//! checkpoint/WAL-sync fan-outs, whole-fleet snapshot merging
//! ([`merge_fleet_snapshots`]), user-state collection and frozen-tier
//! installs, pipelined multi-batch ingest
//! ([`FleetRouter::ingest_batches`]: up to [`DEFAULT_PIPELINE_DEPTH`]
//! batches in flight per connection), and [`FleetRouter::reconnect`] —
//! the supervisor's hook for re-pointing a member at its restarted
//! process.

use sccf_core::{Admission, EventTiming};
use sccf_serving::api::{RecQuery, RecResponse, ServingApi, ServingError, ServingStats};
use sccf_serving::fleet::{merge_fleet_snapshots, merge_fleet_stats, FleetTopology};
use sccf_serving::ring::{group_by_owner, reassemble, HashRing};

use crate::client::Connection;
use crate::proto::{take, Request, Response};

/// Number of requests the router keeps in flight per connection when
/// pipelining multi-batch streams.
pub const DEFAULT_PIPELINE_DEPTH: usize = 4;

/// A connected fleet front end. See the module docs.
pub struct FleetRouter {
    topology: FleetTopology,
    ring: HashRing,
    conns: Vec<Connection>,
    /// The members' admission rule, as every member announced it at
    /// the handshake. Every user is owned on the member ring, so the
    /// placement is [`FleetRouter::owner_of`].
    admission: Admission,
    /// Per member: responses abandoned by a reconnect-while-in-flight.
    /// The next collect (or any other operation) reports them as a
    /// typed [`ServingError::Wire`] instead of hanging on a socket
    /// that no longer exists.
    lost_in_flight: Vec<u64>,
    /// Events acknowledged by acks drained early (depth control)
    /// before [`FleetRouter::ingest_collect`] is called.
    acked_events: u64,
}

impl FleetRouter {
    /// Dial member `m` of `topology` at `addr`, handshake, and check
    /// that the process there announces exactly `m`'s window of the
    /// global ring and — once another member has set it — the fleet's
    /// [`Admission`] (population, catalog, ANN). Returns the connection
    /// and the admission it announced.
    fn dial(
        topology: &FleetTopology,
        m: usize,
        addr: &str,
        fleet: Option<Admission>,
    ) -> Result<(Connection, Admission), ServingError> {
        let member = topology
            .members()
            .get(m)
            .ok_or_else(|| ServingError::Wire(format!("the fleet has no member {m}")))?;
        let mut conn = Connection::connect(addr)?;
        let (admission, base, count, total) = conn.hello()?;
        let expect = (member.base, member.count, topology.total_shards());
        if (base, count, total) != expect {
            return Err(ServingError::Wire(format!(
                "member {m} at {addr} announced window [{base}, {base}+{count}) of {total} \
                 shards; the topology expects [{}, {}+{}) of {}",
                expect.0, expect.0, expect.1, expect.2
            )));
        }
        if let Some(fleet) = fleet.filter(|&f| f != admission) {
            return Err(ServingError::Wire(format!(
                "member {m} at {addr} admits {admission:?}; the fleet admits {fleet:?}"
            )));
        }
        Ok((conn, admission))
    }

    /// Connect to every member of `topology` and handshake. Rejects a
    /// member whose announced window disagrees with the topology, or
    /// whose admission rule disagrees with the other members' — a
    /// mis-launched fleet fails here, not with silently split users or
    /// a query only some members can serve.
    pub fn connect(topology: FleetTopology) -> Result<Self, ServingError> {
        let mut conns = Vec::with_capacity(topology.members().len());
        let mut fleet = None;
        for (m, member) in topology.members().iter().enumerate() {
            let (conn, admission) = Self::dial(&topology, m, &member.addr, fleet)?;
            fleet = Some(admission);
            conns.push(conn);
        }
        let admission = fleet.expect("topology has ≥ 1 member");
        let n_members = conns.len();
        Ok(Self {
            ring: topology.global_ring(),
            topology,
            conns,
            admission,
            lost_in_flight: vec![0; n_members],
            acked_events: 0,
        })
    }

    pub fn topology(&self) -> &FleetTopology {
        &self.topology
    }

    /// Total responses currently owed across all connections.
    pub fn in_flight(&self) -> usize {
        self.conns.iter().map(Connection::in_flight).sum()
    }

    /// The member index owning `user` on the global ring.
    pub fn owner_of(&self, user: u32) -> usize {
        self.topology.member_of_shard(self.ring.route(user))
    }

    /// Re-point member `m` at `addr` (a restarted process) and redo the
    /// handshake. The old connection is dropped; durable state is the
    /// durability layer's problem, which is exactly what the supervisor
    /// restart path relies on. Responses still in flight on the old
    /// connection are recorded as *lost*: the pending collect fails
    /// with a typed [`ServingError::Wire`] instead of hanging on a
    /// socket that no longer exists.
    pub fn reconnect(&mut self, m: usize, addr: &str) -> Result<(), ServingError> {
        let (conn, _) = Self::dial(&self.topology, m, addr, Some(self.admission))?;
        self.lost_in_flight[m] += self.conns[m].in_flight() as u64;
        self.conns[m] = conn;
        Ok(())
    }

    /// If a reconnect abandoned in-flight responses, surface them as a
    /// typed error exactly once and reset the counters.
    fn take_lost(&mut self) -> Option<ServingError> {
        if self.lost_in_flight.iter().all(|&n| n == 0) {
            return None;
        }
        let detail: Vec<String> = self
            .lost_in_flight
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(m, &n)| format!("member {m}: {n}"))
            .collect();
        self.lost_in_flight.iter_mut().for_each(|n| *n = 0);
        self.acked_events = 0;
        Some(ServingError::Wire(format!(
            "in-flight response(s) lost to reconnect ({})",
            detail.join(", ")
        )))
    }

    /// Every operation except the ingest-pipeline primitives requires
    /// an idle wire: no lost responses and no *healthy* connection with
    /// responses still owed (they would misalign the FIFO pairing). A
    /// poisoned connection can never deliver a response, so its
    /// in-flight count is not a hazard here — per-member operations on
    /// it fail typed at enqueue/recv instead, which is what lets
    /// best-effort control fan-outs still reach the live members.
    fn ensure_idle(&mut self, op: &str) -> Result<(), ServingError> {
        if let Some(err) = self.take_lost() {
            return Err(err);
        }
        for (m, conn) in self.conns.iter().enumerate() {
            if conn.in_flight() == 0 || conn.poison_reason().is_some() {
                continue;
            }
            return Err(ServingError::Wire(format!(
                "{op} while {} pipelined response(s) are in flight on member {m}; \
                 collect them first",
                conn.in_flight()
            )));
        }
        Ok(())
    }

    /// Hand the listed members' outboxes to the kernel: one blocking
    /// `write_all` each, in list order. A write failure poisons that
    /// connection and surfaces at its `recv`.
    fn flush_members(&mut self, members: impl IntoIterator<Item = usize>) {
        for m in members {
            let _ = self.conns[m].flush_outbox();
        }
    }

    /// The one fan-out: queue one framed request on each target (every
    /// request is on the wire before any reply is awaited, so the
    /// members work concurrently), then gather one outcome per target,
    /// in target order, remote errors unwrapped. Every target is
    /// contacted and every owed response is consumed (or its connection
    /// poisoned) whatever the others did, so nothing bleeds into a
    /// later call.
    fn scatter<'a>(
        &mut self,
        targets: impl IntoIterator<Item = (usize, &'a [u8])>,
    ) -> Vec<(usize, Result<Response, ServingError>)> {
        let queued: Vec<(usize, Result<(), ServingError>)> = targets
            .into_iter()
            .map(|(m, frame)| (m, self.conns[m].enqueue_frame(frame)))
            .collect();
        self.flush_members(queued.iter().map(|&(m, _)| m));
        queued
            .into_iter()
            .map(|(m, queued)| {
                let reply = queued
                    .and_then(|()| self.conns[m].recv())
                    .and_then(Response::into_result);
                (m, reply)
            })
            .collect()
    }

    /// The data-plane preflight, shared by every strict entry point:
    /// each target's connection must be healthy and each request must
    /// fit one frame, all checked before anything is queued on any
    /// connection — a batch that cannot be delivered whole is applied
    /// nowhere. Returns every request framed once: the bytes that get
    /// queued.
    fn preflight(
        &self,
        targets: impl IntoIterator<Item = (usize, Request)>,
    ) -> Result<Vec<(usize, Vec<u8>)>, ServingError> {
        targets
            .into_iter()
            .map(|(m, req)| match self.conns[m].poison_reason() {
                Some(reason) => Err(ServingError::Wire(format!(
                    "member {m} connection poisoned ({reason}); reconnect required"
                ))),
                None => Ok((m, Connection::frame(&req)?)),
            })
            .collect()
    }

    /// The data-plane contract over [`FleetRouter::scatter`]: the
    /// preflight, then the first error wins.
    fn scatter_strict(
        &mut self,
        targets: impl IntoIterator<Item = (usize, Request)>,
    ) -> Result<Vec<Response>, ServingError> {
        let frames = self.preflight(targets)?;
        self.scatter(frames.iter().map(|(m, frame)| (*m, frame.as_slice())))
            .into_iter()
            .map(|(_, reply)| reply)
            .collect()
    }

    /// Fold per-member failures into one result: zero failures is `Ok`,
    /// one failure keeps its typed error, several combine into a
    /// [`ServingError::Wire`] naming every failed member.
    fn combine_errors(
        op: &str,
        n_members: usize,
        mut errs: Vec<(usize, ServingError)>,
    ) -> Result<(), ServingError> {
        match errs.len() {
            0 => Ok(()),
            1 => Err(errs.pop().expect("len checked").1),
            n => {
                let detail: Vec<String> = errs
                    .iter()
                    .map(|(m, e)| format!("member {m}: {e}"))
                    .collect();
                Err(ServingError::Wire(format!(
                    "{op} failed on {n}/{n_members} members: {}",
                    detail.join("; ")
                )))
            }
        }
    }

    /// The control-plane contract over [`FleetRouter::scatter`]: send
    /// `req` to *every* member and take each reply's payload with
    /// `pick`, in member order. Best-effort: all members are contacted
    /// (with `req` framed once); failures combine.
    fn ask_all<T>(
        &mut self,
        op: &str,
        req: &Request,
        pick: impl Fn(Response) -> Result<T, ServingError>,
    ) -> Result<Vec<T>, ServingError> {
        self.ensure_idle(op)?;
        let frame = Connection::frame(req)?;
        let n_members = self.conns.len();
        let mut parts = Vec::with_capacity(n_members);
        let mut errs = Vec::new();
        for (m, reply) in self.scatter((0..n_members).map(|m| (m, frame.as_slice()))) {
            match reply.and_then(&pick) {
                Ok(part) => parts.push(part),
                Err(e) => errs.push((m, e)),
            }
        }
        Self::combine_errors(op, n_members, errs)?;
        Ok(parts)
    }

    /// [`FleetRouter::ask_all`] expecting [`Response::Done`] from each.
    fn fan_out_done(&mut self, op: &str, req: &Request) -> Result<(), ServingError> {
        self.ask_all(op, req, |resp| take!(resp, Done => ()))
            .map(|_| ())
    }

    /// Write an incremental checkpoint on every member; returns each
    /// member's checkpoint epoch (members advance independently — each
    /// numbers only its own checkpoints). Best-effort: every member is
    /// asked even if an earlier one fails.
    pub fn checkpoint_all(&mut self) -> Result<Vec<u64>, ServingError> {
        self.ask_all(
            "checkpoint",
            &Request::Checkpoint,
            |resp| take!(resp, Watermark(w) => w),
        )
    }

    /// Force-fsync every member's WALs.
    pub fn wal_sync_all(&mut self) -> Result<(), ServingError> {
        self.fan_out_done("wal-sync", &Request::WalSync)
    }

    /// Gracefully stop every member: each flushes, syncs, acknowledges
    /// and exits. Best-effort — every member receives the shutdown even
    /// when an earlier member's socket is already dead, so a partial
    /// failure cannot leak live processes. Connections are dropped
    /// afterwards; the router is consumed because nothing answers it
    /// anymore.
    pub fn shutdown_all(mut self) -> Result<(), ServingError> {
        self.fan_out_done("shutdown", &Request::Shutdown)
    }

    /// One request per owning member for `users`, which the caller has
    /// admitted (`make` builds it from the member's share), each
    /// reply's per-user list taken with `pick` and reassembled in the
    /// order of `users`. Strict.
    fn ask_owners<R>(
        &mut self,
        op: &str,
        users: &[u32],
        make: impl Fn(Vec<u32>) -> Request,
        pick: impl Fn(Response) -> Result<Vec<R>, ServingError>,
    ) -> Result<Vec<R>, ServingError> {
        self.ensure_idle(op)?;
        let (targets, layout): (Vec<_>, Vec<_>) =
            group_by_owner(users.iter().copied(), |&u| self.owner_of(u))
                .into_iter()
                .map(|g| ((g.owner, make(g.items)), (g.owner, g.positions)))
                .unzip();
        let replies = self
            .scatter_strict(targets)?
            .into_iter()
            .map(pick)
            .collect::<Result<Vec<_>, _>>()?;
        reassemble(layout, replies)
    }

    /// Collect migration blobs ([`sccf_core::encode_user_state`]) for
    /// `users`, each from its owning member, in input order — the
    /// cross-process building block for fleet-level tier refreshes.
    pub fn export_user_states(&mut self, users: &[u32]) -> Result<Vec<Vec<u8>>, ServingError> {
        self.admission.users(users, Some)?;
        self.ask_owners(
            "export-users",
            users,
            Request::ExportUsers,
            |resp| take!(resp, Blobs(blobs) => blobs),
        )
    }

    /// Install an encoded [`sccf_core::GlobalNeighborSnapshot`] as the
    /// frozen tier on every member — the whole fleet serves the same
    /// two-tier neighborhoods afterwards.
    pub fn install_tier_bytes(&mut self, bytes: &[u8]) -> Result<(), ServingError> {
        self.fan_out_done("install-tier", &Request::InstallTier(bytes.to_vec()))
    }

    /// Admit every event, then split the batch into one
    /// [`Request::IngestBatch`] per owning member. Admission comes
    /// first so a batch is atomic for admission failures even though
    /// it spans members: an error means nothing was sent.
    fn group_events(
        &self,
        events: &[(u32, u32)],
    ) -> Result<impl Iterator<Item = (usize, Request)>, ServingError> {
        self.admission.events(events, Some)?;
        Ok(
            group_by_owner(events.iter().copied(), |&(user, _)| self.owner_of(user))
                .into_iter()
                .map(|g| (g.owner, Request::IngestBatch(g.items))),
        )
    }

    /// Consume one ingest acknowledgement from member `m`, folding the
    /// acked event count into the running total.
    fn recv_ingest_ack(&mut self, m: usize) -> Result<(), ServingError> {
        let resp = self.conns[m].recv().and_then(Response::into_result)?;
        self.acked_events += take!(resp, Ingested(n) => n)?;
        Ok(())
    }

    /// Queue one ingest batch on the wire **without waiting for the
    /// acknowledgements** — the pipelined half of a multi-batch ingest
    /// stream. A member that already has [`DEFAULT_PIPELINE_DEPTH`]
    /// responses in flight has its oldest acks drained first (bounded
    /// depth). Validation and the data-plane preflight are atomic per
    /// batch, exactly like [`ServingApi::ingest_batch`]: on an error
    /// nothing of this batch is queued anywhere. Pair with
    /// [`FleetRouter::ingest_collect`], which returns the total event
    /// count and any deferred errors.
    pub fn ingest_send(&mut self, events: &[(u32, u32)]) -> Result<(), ServingError> {
        let targets = self.group_events(events)?;
        if let Some(err) = self.take_lost() {
            return Err(err);
        }
        let frames = self.preflight(targets)?;
        for &(m, _) in &frames {
            while self.conns[m].in_flight() >= DEFAULT_PIPELINE_DEPTH {
                self.recv_ingest_ack(m)?;
            }
        }
        for (m, frame) in &frames {
            self.conns[*m].enqueue_frame(frame)?;
        }
        self.flush_members(frames.iter().map(|&(m, _)| m));
        Ok(())
    }

    /// Drain every outstanding ingest acknowledgement and return the
    /// total number of events the fleet acknowledged since the last
    /// collect. Responses lost to a reconnect-while-in-flight surface
    /// here as a typed [`ServingError::Wire`] — never a hang.
    pub fn ingest_collect(&mut self) -> Result<u64, ServingError> {
        let mut first_err: Option<ServingError> = None;
        for m in 0..self.conns.len() {
            while self.conns[m].in_flight() > 0 {
                if let Err(e) = self.recv_ingest_ack(m) {
                    first_err.get_or_insert(e);
                    if self.conns[m].poison_reason().is_some() {
                        // A poisoned connection can never produce the
                        // remaining responses; stop draining it.
                        break;
                    }
                }
            }
        }
        if let Some(err) = self.take_lost() {
            first_err.get_or_insert(err);
        }
        let total = std::mem::take(&mut self.acked_events);
        first_err.map_or(Ok(total), Err)
    }

    /// Pipelined multi-batch ingest: stream `batches` with up to
    /// [`DEFAULT_PIPELINE_DEPTH`] batches in flight per connection, then
    /// collect every acknowledgement. Per-user event order is preserved
    /// — a user's batches all travel the same FIFO connection in
    /// submission order. Returns the total acknowledged event count.
    pub fn ingest_batches(&mut self, batches: &[Vec<(u32, u32)>]) -> Result<u64, ServingError> {
        for batch in batches {
            if let Err(e) = self.ingest_send(batch) {
                // Leave the wire clean before reporting: consume
                // whatever is still owed.
                let _ = self.ingest_collect();
                return Err(e);
            }
        }
        self.ingest_collect()
    }
}

impl ServingApi for FleetRouter {
    fn try_ingest(&mut self, user: u32, item: u32) -> Result<Option<EventTiming>, ServingError> {
        self.ingest_batch(&[(user, item)]).map(|_| None)
    }

    fn ingest_batch(&mut self, events: &[(u32, u32)]) -> Result<u64, ServingError> {
        let targets = self.group_events(events)?;
        self.ensure_idle("ingest")?;
        let mut total = 0u64;
        for resp in self.scatter_strict(targets)? {
            total += take!(resp, Ingested(n) => n)?;
        }
        Ok(total)
    }

    fn try_recommend(&mut self, user: u32, query: &RecQuery) -> Result<RecResponse, ServingError> {
        let m = self.admission.user(user, |u| Some(self.owner_of(u)))?;
        self.admission.query(query.source, &query.exclude)?;
        self.ensure_idle("recommend")?;
        let resp = self.conns[m].call(&Request::Recommend {
            user,
            query: query.clone(),
        })?;
        take!(resp, Slate(slate) => slate)
    }

    fn recommend_many(
        &mut self,
        users: &[u32],
        query: &RecQuery,
    ) -> Result<Vec<RecResponse>, ServingError> {
        self.admission.users(users, Some)?;
        self.admission.query(query.source, &query.exclude)?;
        let make = |users| Request::RecommendMany {
            users,
            query: query.clone(),
        };
        self.ask_owners(
            "recommend",
            users,
            make,
            |resp| take!(resp, Slates(slates) => slates),
        )
    }

    fn flush(&mut self) -> Result<(), ServingError> {
        self.fan_out_done("flush", &Request::Flush)
    }

    fn serving_stats(&mut self) -> Result<ServingStats, ServingError> {
        let parts = self.ask_all("stats", &Request::Stats, |resp| take!(resp, Stats(s) => *s))?;
        Ok(merge_fleet_stats(
            &self.topology,
            parts.into_iter().enumerate().collect(),
        ))
    }

    fn snapshot_state(&mut self) -> Result<Vec<u8>, ServingError> {
        let parts = self.ask_all(
            "snapshot",
            &Request::Snapshot,
            |resp| take!(resp, Bytes(bytes) => bytes),
        )?;
        let parts: Vec<(usize, Vec<u8>)> = parts.into_iter().enumerate().collect();
        merge_fleet_snapshots(&self.topology, &parts)
    }
}
