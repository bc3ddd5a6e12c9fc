//! Fleet topology and cross-process merge helpers — the
//! `sccf-serving`-side half of the networked shard fleet.
//!
//! A fleet is N shard-server processes, each hosting a **slice** of
//! one global [`HashRing`] (see [`crate::sharded::RouterKind::Slice`]):
//! process `i` owns global shards `[base_i, base_i + count_i)`, the
//! windows are disjoint and together cover the whole ring, so user
//! *placement* is identical to a single N-shard process — the fleet's
//! pinned equivalence. This module owns the pieces of that story that
//! do not touch a socket:
//!
//! * [`FleetTopology`] — the validated member table (window per
//!   process) and the global ring both router and servers route by;
//! * [`merge_fleet_snapshots`] — stitch per-process snapshot artifacts
//!   (each whole-population-shaped, but populated only at owned users)
//!   into the single artifact a never-sharded engine would emit,
//!   byte-identical;
//! * [`merge_fleet_stats`] — fold per-process [`ServingStats`] into
//!   one fleet-wide view, remapping local shard ids to global ones.
//!
//! The wire protocol, process roles and supervisor live in the
//! `sccf-net` crate, which builds on these helpers; see
//! `docs/ARCHITECTURE.md` for the process topology.

use sccf_core::{decode_histories, encode_histories};

use crate::api::{ServingError, ServingStats};
use crate::ring::HashRing;

/// One shard-server process's place in the fleet: which window of the
/// global ring it hosts and where to reach it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetMember {
    /// Global shard index of the member's first local shard.
    pub base: usize,
    /// Local shard count (the window is `[base, base + count)`).
    pub count: usize,
    /// Transport address (`host:port` for the TCP fleet).
    pub addr: String,
}

/// The validated shape of a fleet: a `total`-shard global ring carved
/// into contiguous, disjoint member windows that cover it exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetTopology {
    total: usize,
    /// Vnodes of the global consistent ring; 0 = global modulo ring
    /// (mirrors [`crate::sharded::RouterKind::Slice`]).
    vnodes: usize,
    /// Members sorted ascending by `base`.
    members: Vec<FleetMember>,
}

impl FleetTopology {
    /// Validate and order a member table over a `total`-shard global
    /// ring (`vnodes = 0` → modulo, else consistent). Rejects empty
    /// windows, overlap, gaps and windows past the ring with
    /// [`ServingError::InvalidConfig`].
    pub fn try_new(
        total: usize,
        vnodes: usize,
        mut members: Vec<FleetMember>,
    ) -> Result<Self, ServingError> {
        if total == 0 {
            return Err(ServingError::InvalidConfig(
                "fleet needs a global ring of ≥ 1 shards".to_string(),
            ));
        }
        if members.is_empty() {
            return Err(ServingError::InvalidConfig(
                "fleet needs ≥ 1 member".to_string(),
            ));
        }
        members.sort_by_key(|m| m.base);
        let mut expect = 0usize;
        for m in &members {
            if m.count == 0 {
                return Err(ServingError::InvalidConfig(format!(
                    "fleet member at base {} hosts zero shards",
                    m.base
                )));
            }
            if m.base != expect {
                return Err(ServingError::InvalidConfig(format!(
                    "fleet windows must tile the ring: expected a member at base {expect}, \
                     found base {}",
                    m.base
                )));
            }
            expect += m.count;
        }
        if expect != total {
            return Err(ServingError::InvalidConfig(format!(
                "fleet windows cover {expect} shards but the global ring has {total}"
            )));
        }
        Ok(Self {
            total,
            vnodes,
            members,
        })
    }

    /// The global ring every member slices — single-process-identical
    /// placement is exactly "everyone routes by this ring".
    pub fn global_ring(&self) -> HashRing {
        if self.vnodes == 0 {
            HashRing::modulo(self.total)
        } else {
            HashRing::consistent(self.total, self.vnodes)
        }
    }

    pub fn total_shards(&self) -> usize {
        self.total
    }

    pub fn vnodes(&self) -> usize {
        self.vnodes
    }

    /// Members ascending by `base`.
    pub fn members(&self) -> &[FleetMember] {
        &self.members
    }

    /// Index (into [`FleetTopology::members`]) of the member hosting
    /// `user` — the fan-out routing decision.
    pub fn owner_of(&self, user: u32) -> usize {
        let shard = self.global_ring().route(user);
        self.member_of_shard(shard)
    }

    /// Index of the member hosting global shard `shard`.
    ///
    /// # Panics
    /// If `shard >= total_shards()` — routing through
    /// [`FleetTopology::global_ring`] never produces one.
    pub fn member_of_shard(&self, shard: usize) -> usize {
        assert!(shard < self.total, "shard {shard} outside the global ring");
        self.members.partition_point(|m| m.base + m.count <= shard)
    }
}

/// Stitch per-member snapshot artifacts into the one artifact a
/// single-process engine over the same stream would emit.
///
/// Each member's `ShardedEngine::try_snapshot` output is already
/// whole-population-shaped (`sccf_core::encode_histories`), but holds
/// real entries only for the users its window owns — everyone else's
/// slot is empty. The merge takes every user's entry from the owning
/// member and re-encodes; because encoding is deterministic and
/// ownership tiles the population, the result is **byte-identical** to
/// the single-process snapshot (the pinned fleet equivalence, see
/// `tests/fleet.rs`).
///
/// `parts` pairs each member index (into `topology.members()`) with its
/// artifact; every member must be present exactly once.
pub fn merge_fleet_snapshots(
    topology: &FleetTopology,
    parts: &[(usize, Vec<u8>)],
) -> Result<Vec<u8>, ServingError> {
    let n_members = topology.members().len();
    let mut decoded: Vec<Option<Vec<Vec<u32>>>> = vec![None; n_members];
    for (member, bytes) in parts {
        if *member >= n_members {
            return Err(ServingError::InvalidConfig(format!(
                "snapshot part for member {member} but the fleet has {n_members}"
            )));
        }
        if decoded[*member].is_some() {
            return Err(ServingError::InvalidConfig(format!(
                "duplicate snapshot part for member {member}"
            )));
        }
        decoded[*member] = Some(decode_histories(bytes)?);
    }
    let mut tables = Vec::with_capacity(n_members);
    for (m, t) in decoded.into_iter().enumerate() {
        match t {
            Some(t) => tables.push(t),
            None => {
                return Err(ServingError::InvalidConfig(format!(
                    "missing snapshot part for member {m}"
                )));
            }
        }
    }
    let n_users = tables[0].len();
    if let Some(m) = tables.iter().position(|t| t.len() != n_users) {
        return Err(ServingError::InvalidConfig(format!(
            "member {m}'s snapshot covers {} users, member 0's covers {n_users}",
            tables[m].len()
        )));
    }
    let ring = topology.global_ring();
    let mut full: Vec<Vec<u32>> = vec![Vec::new(); n_users];
    for (u, slot) in full.iter_mut().enumerate() {
        let owner = topology.member_of_shard(ring.route(u as u32));
        std::mem::swap(slot, &mut tables[owner][u]);
    }
    Ok(encode_histories(&full))
}

/// Fold per-member [`ServingStats`] into one fleet-wide view: local
/// shard ids are remapped to global ones (`local + base`), counters and
/// timings merge exactly like in-process shard reports (so per-stage
/// percentiles are integer-exact), durability volumes and router
/// pressure sum (capacities and peaks take the max), and the
/// neighborhood block is taken from the first member (the fleet
/// installs one tier everywhere, so they agree).
///
/// `parts` pairs each member index with its stats, like
/// [`merge_fleet_snapshots`].
pub fn merge_fleet_stats(
    topology: &FleetTopology,
    parts: Vec<(usize, ServingStats)>,
) -> ServingStats {
    let mut shards = Vec::new();
    let mut neighborhood = None;
    let mut durability = crate::api::DurabilityStats::default();
    let mut pressure = crate::api::PressureStats::default();
    let mut transport = crate::api::TransportStats::default();
    for (member, stats) in parts {
        let base = topology.members().get(member).map_or(0, |m| m.base);
        for mut r in stats.shards {
            r.shard += base;
            shards.push(r);
        }
        if neighborhood.is_none() {
            neighborhood = Some(stats.neighborhood);
        }
        let d = stats.durability;
        durability.enabled |= d.enabled;
        durability.wal_records += d.wal_records;
        durability.wal_bytes += d.wal_bytes;
        durability.wal_unsynced_bytes += d.wal_unsynced_bytes;
        durability.wal_syncs += d.wal_syncs;
        durability.checkpoints += d.checkpoints;
        durability.checkpoint_watermark =
            durability.checkpoint_watermark.max(d.checkpoint_watermark);
        durability.last_checkpoint_bytes += d.last_checkpoint_bytes;
        durability.events_since_checkpoint += d.events_since_checkpoint;
        let p = stats.pressure;
        pressure.sends += p.sends;
        pressure.stalls += p.stalls;
        pressure.stall_ms += p.stall_ms;
        pressure.queue_capacity = pressure.queue_capacity.max(p.queue_capacity);
        pressure.peak_queue = pressure.peak_queue.max(p.peak_queue);
        let t = stats.transport;
        transport.requests += t.requests;
        transport.read_ahead_hits += t.read_ahead_hits;
        transport.peak_read_ahead = transport.peak_read_ahead.max(t.peak_read_ahead);
        transport.read_ahead_capacity = transport.read_ahead_capacity.max(t.read_ahead_capacity);
    }
    shards.sort_by_key(|r| r.shard);
    let mut out = ServingStats::from_shards(shards);
    out.neighborhood = neighborhood.unwrap_or_default();
    out.durability = durability;
    out.pressure = pressure;
    out.transport = transport;
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn member(base: usize, count: usize) -> FleetMember {
        FleetMember {
            base,
            count,
            addr: format!("127.0.0.1:{}", 9000 + base),
        }
    }

    #[test]
    fn topology_validates_tiling() {
        let ok = FleetTopology::try_new(4, 0, vec![member(2, 2), member(0, 2)]).unwrap();
        assert_eq!(ok.members()[0].base, 0, "members come back sorted");
        assert_eq!(ok.member_of_shard(0), 0);
        assert_eq!(ok.member_of_shard(1), 0);
        assert_eq!(ok.member_of_shard(2), 1);
        assert_eq!(ok.member_of_shard(3), 1);
        for bad in [
            FleetTopology::try_new(4, 0, vec![member(0, 2)]), // gap at the end
            FleetTopology::try_new(4, 0, vec![member(0, 2), member(1, 3)]), // overlap
            FleetTopology::try_new(4, 0, vec![member(0, 2), member(3, 1)]), // hole
            FleetTopology::try_new(4, 0, vec![member(0, 2), member(2, 0), member(2, 2)]),
            FleetTopology::try_new(0, 0, vec![member(0, 1)]),
            FleetTopology::try_new(2, 0, Vec::new()),
        ] {
            assert!(matches!(bad, Err(ServingError::InvalidConfig(_))));
        }
    }

    #[test]
    fn owner_matches_global_ring_route() {
        for vnodes in [0usize, 32] {
            let topo = FleetTopology::try_new(4, vnodes, vec![member(0, 2), member(2, 2)]).unwrap();
            let ring = topo.global_ring();
            for u in 0..2000u32 {
                let owner = topo.owner_of(u);
                let m = &topo.members()[owner];
                let s = ring.route(u);
                assert!(m.base <= s && s < m.base + m.count, "user {u}");
            }
        }
    }

    #[test]
    fn snapshot_merge_takes_each_user_from_its_owner() {
        let topo = FleetTopology::try_new(4, 0, vec![member(0, 2), member(2, 2)]).unwrap();
        let ring = topo.global_ring();
        let n_users = 40usize;
        // The "truth" a single process would hold, and each member's
        // partial view of it (owned users populated, the rest empty).
        let truth: Vec<Vec<u32>> = (0..n_users)
            .map(|u| (0..(u % 5) as u32).map(|k| u as u32 + k).collect())
            .collect();
        let mut partial: Vec<Vec<Vec<u32>>> = vec![vec![Vec::new(); n_users]; 2];
        for (u, t) in truth.iter().enumerate() {
            let owner = topo.member_of_shard(ring.route(u as u32));
            partial[owner][u] = t.clone();
        }
        let parts: Vec<(usize, Vec<u8>)> = partial
            .iter()
            .enumerate()
            .map(|(m, t)| (m, encode_histories(t)))
            .collect();
        let merged = merge_fleet_snapshots(&topo, &parts).unwrap();
        assert_eq!(merged, encode_histories(&truth), "byte-identical merge");
        // Missing and duplicate parts are rejected.
        assert!(merge_fleet_snapshots(&topo, &parts[..1]).is_err());
        let dup = vec![parts[0].clone(), parts[0].clone()];
        assert!(merge_fleet_snapshots(&topo, &dup).is_err());
    }

    #[test]
    fn stats_merge_sums_pressure() {
        use crate::api::PressureStats;
        let topo = FleetTopology::try_new(4, 0, vec![member(0, 2), member(2, 2)]).unwrap();
        let p = |sends, stall_ms, queue_capacity, peak_queue| PressureStats {
            sends,
            stalls: sends / 10,
            stall_ms,
            queue_capacity,
            peak_queue,
        };
        let with = |pressure| ServingStats {
            pressure,
            ..ServingStats::default()
        };
        let parts = vec![
            (0, with(p(300, 1.5, 64, 9))),
            (1, with(p(50, 0.25, 128, 4))),
        ];
        assert_eq!(
            merge_fleet_stats(&topo, parts).pressure,
            p(350, 1.75, 128, 9)
        );
    }
}
