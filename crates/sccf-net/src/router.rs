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
//! **Fan-outs are two-phase and overlapped.** Every multi-member
//! operation first *sends to all* members (nonblocking, readiness-driven
//! via the vendored `mio` shim, so one slow member cannot
//! head-of-line-block writes to the others), then *collects in member
//! order*. All members work concurrently; wall-clock cost is ≈ the
//! slowest member's round trip instead of the sum of all of them.
//! Setting the pipeline depth to 1 ([`FleetRouter::set_pipeline_depth`],
//! or `SCCF_NET_DEPTH=1` at connect time) restores the legacy strictly
//! sequential member-by-member transport — the slow reference the
//! pipelined path is pinned bit-identical against.
//!
//! Control-plane fan-outs (flush, WAL sync, checkpoint, tier installs,
//! shutdown) are **best-effort across all members**: every member is
//! contacted even after an earlier member fails, and the failures come
//! back as one combined [`ServingError`] — a shutdown can no longer
//! leak live processes because member 0's socket died first.
//!
//! On top of the `ServingApi` surface the router exposes the
//! fleet-orchestration verbs the in-process engine does on its own:
//! checkpoint/WAL-sync fan-outs, whole-fleet snapshot merging
//! ([`merge_fleet_snapshots`]), user-state collection and frozen-tier
//! installs, pipelined multi-batch ingest
//! ([`FleetRouter::ingest_batches`]: up to `depth` batches in flight
//! per connection), and [`FleetRouter::reconnect`] — the supervisor's
//! hook for re-pointing a member at its restarted process.

use sccf_core::EventTiming;
use sccf_serving::api::{RecQuery, RecResponse, ServingApi, ServingError, ServingStats};
use sccf_serving::fleet::{merge_fleet_snapshots, merge_fleet_stats, FleetTopology};
use sccf_serving::ring::{group_by_owner, HashRing};

use crate::client::{unexpected, Connection};
use crate::proto::{Request, Response};

/// Default number of requests the router keeps in flight per
/// connection when pipelining multi-batch streams.
pub const DEFAULT_PIPELINE_DEPTH: usize = 4;

/// A connected fleet front end. See the module docs.
pub struct FleetRouter {
    topology: FleetTopology,
    ring: HashRing,
    conns: Vec<Connection>,
    n_users: usize,
    n_items: usize,
    /// Max in-flight requests per connection; 1 = legacy sequential.
    depth: usize,
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
    /// Connect to every member of `topology` and handshake. Rejects a
    /// member whose announced window or population disagrees with the
    /// topology — a mis-launched fleet fails here, not with silently
    /// split users. The pipeline depth starts at `SCCF_NET_DEPTH` when
    /// set (min 1), else [`DEFAULT_PIPELINE_DEPTH`].
    pub fn connect(topology: FleetTopology) -> Result<Self, ServingError> {
        let mut conns = Vec::with_capacity(topology.members().len());
        let mut fleet_users: Option<(usize, usize)> = None;
        for (m, member) in topology.members().iter().enumerate() {
            let mut conn = Connection::connect(member.addr.as_str())?;
            let (n_users, n_items, base, count, total) = conn.hello()?;
            if (base, count, total) != (member.base, member.count, topology.total_shards()) {
                return Err(ServingError::Wire(format!(
                    "member {m} at {} announced window [{base}, {base}+{count}) of {total} \
                     shards; the topology expects [{}, {}+{}) of {}",
                    member.addr,
                    member.base,
                    member.base,
                    member.count,
                    topology.total_shards()
                )));
            }
            match fleet_users {
                None => fleet_users = Some((n_users, n_items)),
                Some(expect) if expect != (n_users, n_items) => {
                    return Err(ServingError::Wire(format!(
                        "member {m} serves a {n_users}×{n_items} world; member 0 serves {}×{}",
                        expect.0, expect.1
                    )));
                }
                Some(_) => {}
            }
            conns.push(conn);
        }
        let (n_users, n_items) = fleet_users.expect("topology has ≥ 1 member");
        let depth = std::env::var("SCCF_NET_DEPTH")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or(DEFAULT_PIPELINE_DEPTH)
            .max(1);
        let n_members = conns.len();
        Ok(Self {
            ring: topology.global_ring(),
            topology,
            conns,
            n_users,
            n_items,
            depth,
            lost_in_flight: vec![0; n_members],
            acked_events: 0,
        })
    }

    pub fn topology(&self) -> &FleetTopology {
        &self.topology
    }

    /// Max requests in flight per connection (1 = legacy sequential).
    pub fn pipeline_depth(&self) -> usize {
        self.depth
    }

    /// Set the per-connection pipeline depth. Depth 1 restores the
    /// strictly sequential member-by-member transport.
    pub fn set_pipeline_depth(&mut self, depth: usize) {
        self.depth = depth.max(1);
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
        let member = self
            .topology
            .members()
            .get(m)
            .ok_or_else(|| ServingError::Wire(format!("no fleet member {m} to reconnect")))?;
        let mut conn = Connection::connect(addr)?;
        let (n_users, n_items, base, count, total) = conn.hello()?;
        if (base, count, total) != (member.base, member.count, self.topology.total_shards()) {
            return Err(ServingError::Wire(format!(
                "reconnected member {m} announced window [{base}, {base}+{count}) of {total}; \
                 expected [{}, {}+{})",
                member.base, member.base, member.count
            )));
        }
        if (n_users, n_items) != (self.n_users, self.n_items) {
            return Err(ServingError::Wire(format!(
                "reconnected member {m} serves a {n_users}×{n_items} world; the fleet serves {}×{}",
                self.n_users, self.n_items
            )));
        }
        let abandoned = self.conns[m].in_flight();
        if abandoned > 0 {
            self.lost_in_flight[m] += abandoned as u64;
        }
        self.conns[m] = conn;
        Ok(())
    }

    fn check_user(&self, user: u32) -> Result<(), ServingError> {
        if user as usize >= self.n_users {
            return Err(ServingError::UnknownUser {
                user,
                n_users: self.n_users,
            });
        }
        Ok(())
    }

    fn check_item(&self, item: u32) -> Result<(), ServingError> {
        if item as usize >= self.n_items {
            return Err(ServingError::UnknownItem {
                item,
                n_items: self.n_items,
            });
        }
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

    /// Push every member's pending outbox bytes to the kernel,
    /// overlapped: nonblocking writes driven by a readiness loop, so a
    /// member with a full socket buffer never delays the others' sends.
    /// Write failures poison the individual connection and surface at
    /// its `recv`; this function itself only fails on setup errors
    /// that affect no connection state.
    fn flush_overlapped(&mut self, members: &[usize]) {
        let mut pending: Vec<usize> = Vec::with_capacity(members.len());
        for &m in members {
            let conn = &mut self.conns[m];
            if conn.poison_reason().is_some() || conn.pending_bytes() == 0 {
                continue;
            }
            // Optimistic first pass: loopback-sized sends usually fit
            // the socket buffer outright.
            match conn.try_flush_outbox() {
                Ok(true) | Err(_) => {}
                Ok(false) => pending.push(m),
            }
        }
        if !pending.is_empty() {
            match mio::Poll::new() {
                Err(_) => {
                    // No poller: fall back to blocking flushes. Writes
                    // serialize but correctness holds.
                    for &m in &pending {
                        let _ = self.conns[m].flush_outbox();
                    }
                    pending.clear();
                }
                Ok(mut poll) => {
                    let mut registered: Vec<usize> = Vec::with_capacity(pending.len());
                    for &m in &pending {
                        if poll
                            .register(
                                self.conns[m].socket(),
                                mio::Token(m),
                                mio::Interest::WRITABLE,
                            )
                            .is_ok()
                        {
                            registered.push(m);
                        }
                    }
                    let mut events = mio::Events::with_capacity(pending.len().max(4));
                    while !pending.is_empty() {
                        if poll
                            .poll(&mut events, Some(std::time::Duration::from_millis(100)))
                            .is_err()
                        {
                            // Poller died mid-loop: finish blocking.
                            for &m in &pending {
                                let _ = self.conns[m].flush_outbox();
                            }
                            break;
                        }
                        // Retry every still-pending member (level-triggered
                        // readiness; non-writable sockets cost one EAGAIN).
                        pending.retain(|&m| match self.conns[m].try_flush_outbox() {
                            Ok(false) => true,
                            Ok(true) | Err(_) => {
                                if registered.contains(&m) {
                                    let _ = poll.deregister(self.conns[m].socket());
                                    registered.retain(|&r| r != m);
                                }
                                false
                            }
                        });
                    }
                    for &m in &registered {
                        let _ = poll.deregister(self.conns[m].socket());
                    }
                }
            }
        }
        // Leave every touched connection in blocking mode for the
        // collect phase.
        for &m in members {
            let _ = self.conns[m].set_nonblocking(false);
        }
    }

    /// Two-phase fan-out: send one request to each listed member (all
    /// sends overlapped), then collect one response per member in
    /// list order, unwrapping remote errors. On failure every owed
    /// response is still consumed (or its connection poisoned), so no
    /// stale response can bleed into a later operation; the first
    /// error wins. Depth 1 runs the legacy strictly sequential
    /// round-trip-per-member transport instead.
    fn scatter_gather(&mut self, reqs: &[(usize, Request)]) -> Result<Vec<Response>, ServingError> {
        if self.depth <= 1 {
            let mut out = Vec::with_capacity(reqs.len());
            for (m, req) in reqs {
                out.push(self.conns[*m].call(req)?);
            }
            return Ok(out);
        }
        // Refuse before the first enqueue so a failed fan-out never
        // leaves half-framed requests behind in some outboxes.
        for &(m, _) in reqs {
            if let Some(reason) = self.conns[m].poison_reason() {
                return Err(ServingError::Wire(format!(
                    "member {m} connection poisoned ({reason}); reconnect required"
                )));
            }
        }
        let mut members = Vec::with_capacity(reqs.len());
        for (m, req) in reqs {
            self.conns[*m].enqueue(req)?;
            members.push(*m);
        }
        self.flush_overlapped(&members);
        let mut first_err: Option<ServingError> = None;
        let mut out = Vec::with_capacity(reqs.len());
        for &(m, _) in reqs {
            match self.conns[m].recv().and_then(Response::into_result) {
                Ok(resp) => out.push(resp),
                Err(e) => {
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(out),
        }
    }

    /// Best-effort fan-out of `req` to *every* member: all members are
    /// contacted even when earlier ones fail; each member's outcome is
    /// returned. Used by the control plane so that e.g. a shutdown
    /// cannot leak live processes behind one dead socket.
    fn fan_out_collect(&mut self, req: &Request) -> Vec<(usize, Result<Response, ServingError>)> {
        if self.depth <= 1 {
            return (0..self.conns.len())
                .map(|m| (m, self.conns[m].call(req)))
                .collect();
        }
        let mut sent = Vec::with_capacity(self.conns.len());
        let mut out: Vec<(usize, Result<Response, ServingError>)> =
            Vec::with_capacity(self.conns.len());
        for m in 0..self.conns.len() {
            match self.conns[m].enqueue(req) {
                Ok(()) => sent.push(m),
                Err(e) => out.push((m, Err(e))),
            }
        }
        self.flush_overlapped(&sent);
        for m in sent {
            out.push((m, self.conns[m].recv().and_then(Response::into_result)));
        }
        out.sort_by_key(|&(m, _)| m);
        out
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

    /// Send `req` to every member, expecting [`Response::Done`] from
    /// each. Best-effort: all members are contacted; failures combine.
    fn fan_out_done(&mut self, op: &str, req: &Request) -> Result<(), ServingError> {
        self.ensure_idle(op)?;
        let n_members = self.conns.len();
        let mut errs = Vec::new();
        for (m, res) in self.fan_out_collect(req) {
            match res {
                Ok(Response::Done) => {}
                Ok(other) => errs.push((m, unexpected("Done", &other))),
                Err(e) => errs.push((m, e)),
            }
        }
        Self::combine_errors(op, n_members, errs)
    }

    /// Write an incremental checkpoint on every member; returns each
    /// member's checkpoint epoch (members advance independently — each
    /// numbers only its own checkpoints). Best-effort: every member is
    /// asked even if an earlier one fails.
    pub fn checkpoint_all(&mut self) -> Result<Vec<u64>, ServingError> {
        self.ensure_idle("checkpoint")?;
        let n_members = self.conns.len();
        let mut marks = Vec::with_capacity(n_members);
        let mut errs = Vec::new();
        for (m, res) in self.fan_out_collect(&Request::Checkpoint) {
            match res {
                Ok(Response::Watermark(w)) => marks.push(w),
                Ok(other) => errs.push((m, unexpected("Watermark", &other))),
                Err(e) => errs.push((m, e)),
            }
        }
        Self::combine_errors("checkpoint", n_members, errs)?;
        Ok(marks)
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

    /// Collect migration blobs ([`sccf_core::encode_user_state`]) for
    /// `users`, each from its owning member, in input order — the
    /// cross-process building block for fleet-level tier refreshes.
    pub fn export_user_states(&mut self, users: &[u32]) -> Result<Vec<Vec<u8>>, ServingError> {
        self.ensure_idle("export-users")?;
        for &u in users {
            self.check_user(u)?;
        }
        let groups = group_by_owner(users.iter().copied(), |&u| self.owner_of(u));
        let reqs: Vec<(usize, Request)> = groups
            .iter()
            .map(|g| (g.owner, Request::ExportUsers(g.items.clone())))
            .collect();
        let responses = self.scatter_gather(&reqs)?;
        let mut out: Vec<Vec<u8>> = vec![Vec::new(); users.len()];
        for (g, resp) in groups.into_iter().zip(responses) {
            match resp {
                Response::Blobs(blobs) => {
                    if blobs.len() != g.positions.len() {
                        return Err(ServingError::Wire(format!(
                            "member {} returned {} blobs for {} users",
                            g.owner,
                            blobs.len(),
                            g.positions.len()
                        )));
                    }
                    for (pos, blob) in g.positions.into_iter().zip(blobs) {
                        out[pos] = blob;
                    }
                }
                other => return Err(unexpected("Blobs", &other)),
            }
        }
        Ok(out)
    }

    /// Install an encoded [`sccf_core::GlobalNeighborSnapshot`] as the
    /// frozen tier on every member — the whole fleet serves the same
    /// two-tier neighborhoods afterwards.
    pub fn install_tier_bytes(&mut self, bytes: &[u8]) -> Result<(), ServingError> {
        self.fan_out_done("install-tier", &Request::InstallTier(bytes.to_vec()))
    }

    /// Drop the frozen tier on every member.
    pub fn clear_tier(&mut self) -> Result<(), ServingError> {
        self.fan_out_done("clear-tier", &Request::ClearTier)
    }

    /// Consume one ingest acknowledgement from member `m`, folding the
    /// acked event count into the running total.
    fn recv_ingest_ack(&mut self, m: usize) -> Result<(), ServingError> {
        match self.conns[m].recv().and_then(Response::into_result)? {
            Response::Ingested(n) => {
                self.acked_events += n;
                Ok(())
            }
            other => Err(unexpected("Ingested", &other)),
        }
    }

    /// Queue one ingest batch on the wire **without waiting for the
    /// acknowledgements** — the pipelined half of a multi-batch ingest
    /// stream. Per-member sends are overlapped; if a member already has
    /// [`FleetRouter::pipeline_depth`] responses in flight, its oldest
    /// ack is drained first (bounded depth). Validation is atomic per
    /// batch, exactly like [`ServingApi::ingest_batch`]. Pair with
    /// [`FleetRouter::ingest_collect`], which returns the total event
    /// count and any deferred errors.
    pub fn ingest_send(&mut self, events: &[(u32, u32)]) -> Result<(), ServingError> {
        if let Some(err) = self.take_lost() {
            return Err(err);
        }
        for &(user, item) in events {
            self.check_user(user)?;
            self.check_item(item)?;
        }
        let mut groups: Vec<Vec<(u32, u32)>> = vec![Vec::new(); self.conns.len()];
        for &(user, item) in events {
            groups[self.owner_of(user)].push((user, item));
        }
        let depth = self.depth.max(1);
        let mut members = Vec::new();
        for (m, group) in groups.into_iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            while self.conns[m].in_flight() >= depth {
                self.recv_ingest_ack(m)?;
            }
            self.conns[m].enqueue(&Request::IngestBatch(group))?;
            members.push(m);
        }
        self.flush_overlapped(&members);
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
                match self.recv_ingest_ack(m) {
                    Ok(()) => {}
                    Err(e) => {
                        if first_err.is_none() {
                            first_err = Some(e);
                        }
                        if self.conns[m].poison_reason().is_some() {
                            // A poisoned connection can never produce the
                            // remaining responses; stop draining it.
                            break;
                        }
                    }
                }
            }
        }
        if let Some(err) = self.take_lost() {
            if first_err.is_none() {
                first_err = Some(err);
            }
        }
        let total = self.acked_events;
        self.acked_events = 0;
        match first_err {
            Some(e) => Err(e),
            None => Ok(total),
        }
    }

    /// Pipelined multi-batch ingest: stream `batches` with up to
    /// [`FleetRouter::pipeline_depth`] batches in flight per
    /// connection, then collect every acknowledgement. Per-user event
    /// order is preserved — a user's batches all travel the same FIFO
    /// connection in submission order. At depth 1 this degrades to the
    /// sequential [`ServingApi::ingest_batch`] loop (the pinned
    /// reference). Returns the total acknowledged event count.
    pub fn ingest_batches(&mut self, batches: &[Vec<(u32, u32)>]) -> Result<u64, ServingError> {
        if self.depth <= 1 {
            let mut total = 0u64;
            for batch in batches {
                total += self.ingest_batch(batch)?;
            }
            return Ok(total);
        }
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
        self.ensure_idle("ingest")?;
        self.check_user(user)?;
        self.check_item(item)?;
        let m = self.owner_of(user);
        match self.conns[m].call(&Request::IngestBatch(vec![(user, item)]))? {
            Response::Ingested(_) => Ok(None),
            other => Err(unexpected("Ingested", &other)),
        }
    }

    fn ingest_batch(&mut self, events: &[(u32, u32)]) -> Result<u64, ServingError> {
        self.ensure_idle("ingest")?;
        // Validate everything before sending anything: the batch is
        // atomic for validation failures even though it spans members.
        for &(user, item) in events {
            self.check_user(user)?;
            self.check_item(item)?;
        }
        let mut groups: Vec<Vec<(u32, u32)>> = vec![Vec::new(); self.conns.len()];
        for &(user, item) in events {
            groups[self.owner_of(user)].push((user, item));
        }
        let reqs: Vec<(usize, Request)> = groups
            .into_iter()
            .enumerate()
            .filter(|(_, g)| !g.is_empty())
            .map(|(m, g)| (m, Request::IngestBatch(g)))
            .collect();
        let mut total = 0u64;
        for resp in self.scatter_gather(&reqs)? {
            match resp {
                Response::Ingested(n) => total += n,
                other => return Err(unexpected("Ingested", &other)),
            }
        }
        Ok(total)
    }

    fn try_recommend(&mut self, user: u32, query: &RecQuery) -> Result<RecResponse, ServingError> {
        self.ensure_idle("recommend")?;
        self.check_user(user)?;
        let m = self.owner_of(user);
        match self.conns[m].call(&Request::Recommend {
            user,
            query: query.clone(),
        })? {
            Response::Slate(slate) => Ok(slate),
            other => Err(unexpected("Slate", &other)),
        }
    }

    fn recommend_many(
        &mut self,
        users: &[u32],
        query: &RecQuery,
    ) -> Result<Vec<RecResponse>, ServingError> {
        self.ensure_idle("recommend")?;
        for &u in users {
            self.check_user(u)?;
        }
        let groups = group_by_owner(users.iter().copied(), |&u| self.owner_of(u));
        let reqs: Vec<(usize, Request)> = groups
            .iter()
            .map(|g| {
                (
                    g.owner,
                    Request::RecommendMany {
                        users: g.items.clone(),
                        query: query.clone(),
                    },
                )
            })
            .collect();
        let responses = self.scatter_gather(&reqs)?;
        let mut out: Vec<Option<RecResponse>> = vec![None; users.len()];
        for (g, resp) in groups.into_iter().zip(responses) {
            let n_asked = g.positions.len();
            match resp {
                Response::Slates(slates) => {
                    if slates.len() != n_asked {
                        return Err(ServingError::Wire(format!(
                            "member {} returned {} slates for {n_asked} users",
                            g.owner,
                            slates.len()
                        )));
                    }
                    for (pos, slate) in g.positions.into_iter().zip(slates) {
                        out[pos] = Some(slate);
                    }
                }
                other => return Err(unexpected("Slates", &other)),
            }
        }
        Ok(out
            .into_iter()
            .map(|s| s.expect("every position grouped exactly once"))
            .collect())
    }

    fn flush(&mut self) -> Result<(), ServingError> {
        self.fan_out_done("flush", &Request::Flush)
    }

    fn serving_stats(&mut self) -> Result<ServingStats, ServingError> {
        self.ensure_idle("stats")?;
        let reqs: Vec<(usize, Request)> =
            (0..self.conns.len()).map(|m| (m, Request::Stats)).collect();
        let responses = self.scatter_gather(&reqs)?;
        let mut parts = Vec::with_capacity(responses.len());
        for (m, resp) in responses.into_iter().enumerate() {
            match resp {
                Response::Stats(stats) => parts.push((m, *stats)),
                other => return Err(unexpected("Stats", &other)),
            }
        }
        Ok(merge_fleet_stats(&self.topology, parts))
    }

    fn snapshot_state(&mut self) -> Result<Vec<u8>, ServingError> {
        self.ensure_idle("snapshot")?;
        let reqs: Vec<(usize, Request)> = (0..self.conns.len())
            .map(|m| (m, Request::Snapshot))
            .collect();
        let responses = self.scatter_gather(&reqs)?;
        let mut parts = Vec::with_capacity(responses.len());
        for (m, resp) in responses.into_iter().enumerate() {
            match resp {
                Response::Bytes(bytes) => parts.push((m, bytes)),
                other => return Err(unexpected("Bytes", &other)),
            }
        }
        merge_fleet_snapshots(&self.topology, &parts)
    }
}
