//! User→shard routing behind one abstraction: [`HashRing`].
//!
//! The sharded engine's router needs a pure, deterministic function
//! from a user id to a shard — per-user event ordering and shard-local
//! state both rest on "same user, same shard, always". PR 2 hard-coded
//! that function as `FxHash(user) % N`; this module turns it into a
//! value with two interchangeable modes:
//!
//! * [`HashRing::modulo`] — the legacy router, bit-for-bit. Perfectly
//!   balanced, but changing `N` remaps almost every user (≈ `1 − 1/M`
//!   of them for N→M), so a modulo fleet pays a near-total state
//!   migration on every scale-out.
//! * [`HashRing::consistent`] — a consistent-hash ring with virtual
//!   nodes: every `(shard, vnode)` pair hashes to a point on a `u64`
//!   circle, and a user belongs to the first point clockwise of her
//!   hash. Adding or removing shards only moves the users whose arc
//!   changed hands — ≈ `1 − N/M` for N→M scale-out, the minimum any
//!   correct router can achieve — which is what makes **live
//!   resharding** (`ShardedEngine::reshard`) cheap: the handoff
//!   migrates only the moved arcs, not the whole population.
//!
//! Rings are plain values: cheap to build (points are derived from the
//! mode, the shard count and the vnode count, not stored state),
//! `Clone` and comparable — recording those three numbers next to a
//! state snapshot is enough to reconstruct the exact same placement
//! later (see `docs/OPERATIONS.md`).
//!
//! ```
//! use sccf_serving::ring::HashRing;
//!
//! // The legacy modulo router and a 64-vnode consistent ring.
//! let modulo = HashRing::modulo(4);
//! let ring = HashRing::consistent(4, 64);
//! assert_eq!(ring.n_shards(), 4);
//!
//! // Routing is a pure function: same user, same shard, always.
//! assert_eq!(ring.route(17), ring.route(17));
//! assert!(modulo.route(17) < 4 && ring.route(17) < 4);
//!
//! // Consistent hashing moves few users on scale-out; modulo moves most.
//! let grown = HashRing::consistent(5, 64);
//! let moved = (0..10_000u32).filter(|&u| ring.route(u) != grown.route(u)).count();
//! assert!(moved < 5_000, "consistent 4→5 moved {moved}/10000 users");
//! ```

use std::hash::Hasher;

use sccf_util::hash::FxHasher;

use crate::api::ServingError;

/// FxHash of a user id — the hash the original modulo router used; the
/// modulo mode must keep it bit-for-bit (placement of every deployed
/// modulo fleet depends on it; pinned by `ring::tests`).
fn hash_user_fx(user: u32) -> u64 {
    let mut h = FxHasher::default();
    h.write_u32(user);
    h.finish()
}

/// SplitMix64 finalizer: a full-avalanche 64-bit mixer. The consistent
/// ring positions points and keys on the circle by this — FxHash alone
/// distributes small integer inputs too unevenly over the `u64` range,
/// which starves whole arcs (multiplicative hashing concentrates its
/// entropy in the high bits; ring placement needs all of them).
fn mix64(v: u64) -> u64 {
    let mut z = v.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Position of `user` on the consistent ring's circle.
fn hash_user_ring(user: u32) -> u64 {
    mix64(user as u64)
}

/// Domain tag separating vnode points from user keys. Without it,
/// shard 0's vnode `v` and user `v` hash identically, so every user id
/// below the vnode count would sit exactly on a shard-0 point and glue
/// itself there.
const POINT_DOMAIN: u64 = 1 << 63;

/// Position of one `(shard, vnode)` pair on the circle.
fn hash_point(shard: u32, vnode: u32) -> u64 {
    mix64(POINT_DOMAIN | ((shard as u64) << 32) | vnode as u64)
}

/// Deterministic user→shard router: the legacy modulo mapping or a
/// consistent-hash ring with virtual nodes. See the [module docs](self)
/// for when each mode is the right choice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HashRing {
    n_shards: usize,
    kind: RingKind,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum RingKind {
    Modulo,
    Consistent {
        vnodes: usize,
        /// `(point, shard)` sorted by point; ties broken by shard id so
        /// construction is deterministic even under point collisions.
        points: Vec<(u64, u32)>,
    },
    /// A contiguous window `[base, base + n_shards)` of a larger
    /// `global` ring, re-indexed to local shard ids. The fleet's
    /// shard-server processes each hold one slice of the shared global
    /// ring; slicing keeps *placement* identical to the single-process
    /// ring (the pinned fleet equivalence) while letting each process
    /// own only its window.
    Slice {
        global: Box<HashRing>,
        base: usize,
    },
}

impl HashRing {
    /// The legacy router: `FxHash(user) % n_shards` (the formula is
    /// pinned by `ring::tests`).
    ///
    /// # Panics
    /// If `n_shards == 0` — engine construction rejects zero-shard
    /// configs before building a ring.
    pub fn modulo(n_shards: usize) -> Self {
        assert!(n_shards > 0, "a ring needs at least one shard");
        Self {
            n_shards,
            kind: RingKind::Modulo,
        }
    }

    /// A consistent-hash ring placing `vnodes` virtual nodes per shard
    /// on the `u64` circle. More vnodes → better balance (the per-shard
    /// load spread narrows as `1/√vnodes`) at O(n_shards × vnodes)
    /// build cost and O(log) routing; 64–128 is a good default.
    ///
    /// # Panics
    /// If `n_shards == 0` or `vnodes == 0`.
    pub fn consistent(n_shards: usize, vnodes: usize) -> Self {
        assert!(n_shards > 0, "a ring needs at least one shard");
        assert!(
            vnodes > 0,
            "a consistent ring needs at least one vnode per shard"
        );
        let mut points = Vec::with_capacity(n_shards * vnodes);
        for s in 0..n_shards as u32 {
            for v in 0..vnodes as u32 {
                points.push((hash_point(s, v), s));
            }
        }
        points.sort_unstable();
        Self {
            n_shards,
            kind: RingKind::Consistent { vnodes, points },
        }
    }

    /// A contiguous window `[base, base + count)` of `global`,
    /// re-indexed so local shard 0 is global shard `base`. Routing a
    /// user the window does not own yields an out-of-range local index
    /// from [`HashRing::route`] (use [`HashRing::try_route`] to get
    /// `None` instead) — slice holders serve only their window and
    /// reject the rest as `NotOwned`.
    ///
    /// # Panics
    /// If `count == 0` or the window does not fit inside `global`.
    pub fn slice(global: HashRing, base: usize, count: usize) -> Self {
        assert!(count > 0, "a ring slice needs at least one shard");
        assert!(
            !global.is_slice(),
            "cannot slice a slice — slice the global ring"
        );
        assert!(
            base.checked_add(count)
                .is_some_and(|end| end <= global.n_shards()),
            "ring slice [{base}, {base}+{count}) exceeds the global ring's {} shards",
            global.n_shards()
        );
        Self {
            n_shards: count,
            kind: RingKind::Slice {
                global: Box::new(global),
                base,
            },
        }
    }

    /// The shard owning `user`. For the modulo and consistent modes
    /// this is pure and total: every user id maps to exactly one shard
    /// `< n_shards()`, and the same id always maps to the same shard
    /// for a given ring value. A [`HashRing::slice`] routes users
    /// outside its window to an index `>= n_shards()` (the global
    /// offset wraps); callers that may hold a slice should use
    /// [`HashRing::try_route`].
    pub fn route(&self, user: u32) -> usize {
        match &self.kind {
            RingKind::Modulo => (hash_user_fx(user) % self.n_shards as u64) as usize,
            RingKind::Consistent { points, .. } => {
                let h = hash_user_ring(user);
                let i = points.partition_point(|p| p.0 < h);
                let (_, shard) = points[if i == points.len() { 0 } else { i }];
                shard as usize
            }
            RingKind::Slice { global, base } => global.route(user).wrapping_sub(*base),
        }
    }

    /// Like [`HashRing::route`], but `None` for users a slice does not
    /// own. For modulo and consistent rings this is always `Some`.
    pub fn try_route(&self, user: u32) -> Option<usize> {
        let s = self.route(user);
        (s < self.n_shards).then_some(s)
    }

    pub fn n_shards(&self) -> usize {
        self.n_shards
    }

    /// Whether this ring is a [`HashRing::slice`] of a larger global
    /// ring (and therefore partial: some users route to `None`).
    pub fn is_slice(&self) -> bool {
        matches!(self.kind, RingKind::Slice { .. })
    }

    /// For a slice, the global shard index of local shard 0; `0` for
    /// whole rings (local ids *are* global ids).
    pub fn slice_base(&self) -> usize {
        match &self.kind {
            RingKind::Slice { base, .. } => *base,
            _ => 0,
        }
    }

    /// Virtual nodes per shard — `None` for the modulo mode; a slice
    /// reports its global ring's vnode count.
    pub fn vnodes(&self) -> Option<usize> {
        match &self.kind {
            RingKind::Modulo => None,
            RingKind::Consistent { vnodes, .. } => Some(*vnodes),
            RingKind::Slice { global, .. } => global.vnodes(),
        }
    }
}

/// One owner's share of a grouped batch: the items it owns, in input
/// order, and where each stood in the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OwnerGroup<T> {
    pub owner: usize,
    pub items: Vec<T>,
    pub positions: Vec<usize>,
}

/// Split a batch by owner (a shard, a fleet member), preserving input
/// order inside each group and listing groups in first-seen order —
/// so the grouping is a pure function of the input, and a gather that
/// writes `items[i]`'s reply to `positions[i]` restores input order.
/// The one grouping step behind every scatter in the sharded engine
/// and the fleet router.
pub fn group_by_owner<T>(
    items: impl IntoIterator<Item = T>,
    owner_of: impl Fn(&T) -> usize,
) -> Vec<OwnerGroup<T>> {
    let mut groups: Vec<OwnerGroup<T>> = Vec::new();
    for (pos, item) in items.into_iter().enumerate() {
        let owner = owner_of(&item);
        let at = groups
            .iter()
            .position(|g| g.owner == owner)
            .unwrap_or_else(|| {
                groups.push(OwnerGroup {
                    owner,
                    items: Vec::new(),
                    positions: Vec::new(),
                });
                groups.len() - 1
            });
        groups[at].items.push(item);
        groups[at].positions.push(pos);
    }
    groups
}

/// Undo [`group_by_owner`]: given each group's `(owner, positions)` and
/// that owner's replies (one per item, in the group's order), return
/// the replies in input order. An owner that answered with the wrong
/// number of replies is a typed [`ServingError::Wire`] naming it —
/// owners may sit across a process boundary.
///
/// # Panics
/// If `replies` does not hold exactly one list per group.
pub fn reassemble<R>(
    layout: Vec<(usize, Vec<usize>)>,
    replies: Vec<Vec<R>>,
) -> Result<Vec<R>, ServingError> {
    assert_eq!(layout.len(), replies.len(), "one reply list per group");
    let n = layout.iter().map(|(_, positions)| positions.len()).sum();
    let mut out: Vec<Option<R>> = std::iter::repeat_with(|| None).take(n).collect();
    for ((owner, positions), replies) in layout.into_iter().zip(replies) {
        if replies.len() != positions.len() {
            return Err(ServingError::Wire(format!(
                "owner {owner} returned {} replies for {} items",
                replies.len(),
                positions.len()
            )));
        }
        for (pos, reply) in positions.into_iter().zip(replies) {
            out[pos] = Some(reply);
        }
    }
    Ok(out
        .into_iter()
        .map(|r| r.expect("every position grouped exactly once"))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_is_deterministic_and_in_range() {
        for ring in [
            HashRing::modulo(1),
            HashRing::modulo(7),
            HashRing::consistent(1, 16),
            HashRing::consistent(7, 64),
        ] {
            for u in 0..2000u32 {
                let s = ring.route(u);
                assert!(s < ring.n_shards());
                assert_eq!(s, ring.route(u), "same user, same shard");
            }
        }
    }

    #[test]
    fn single_shard_rings_route_everything_to_zero() {
        let modulo = HashRing::modulo(1);
        let consistent = HashRing::consistent(1, 8);
        assert!((0..1000u32).all(|u| modulo.route(u) == 0 && consistent.route(u) == 0));
    }

    #[test]
    fn hashing_spreads_users() {
        let n = 8usize;
        let ring = HashRing::modulo(n);
        let mut counts = vec![0usize; n];
        for u in 0..8000u32 {
            counts[ring.route(u)] += 1;
        }
        // FxHash of sequential ids is not perfectly uniform, but every
        // shard must carry a meaningful fraction of the users.
        for (s, &c) in counts.iter().enumerate() {
            assert!(c > 8000 / n / 4, "shard {s} starved: {c} users");
        }
    }

    #[test]
    fn modulo_ring_matches_deprecated_shard_of() {
        // The placement formula of the removed free `shard_of`, written
        // out: FxHash of the id's four bytes, mod the shard count.
        let shard_of = |user: u32, n_shards: usize| {
            let mut h = FxHasher::default();
            h.write_u32(user);
            (h.finish() % n_shards as u64) as usize
        };
        for n in [1usize, 2, 3, 8, 16] {
            let ring = HashRing::modulo(n);
            for u in 0..4000u32 {
                assert_eq!(ring.route(u), shard_of(u, n));
            }
        }
    }

    #[test]
    fn group_by_owner_keeps_input_order_and_positions() {
        let groups = group_by_owner([7u32, 2, 9, 4, 3], |&u| (u % 2) as usize);
        assert_eq!(
            groups,
            vec![
                OwnerGroup {
                    owner: 1,
                    items: vec![7, 9, 3],
                    positions: vec![0, 2, 4],
                },
                OwnerGroup {
                    owner: 0,
                    items: vec![2, 4],
                    positions: vec![1, 3],
                },
            ]
        );
        assert!(group_by_owner(Vec::<u32>::new(), |_| 0).is_empty());
    }

    #[test]
    fn reassemble_restores_input_order_and_rejects_short_replies() {
        let groups = group_by_owner([7u32, 2, 9, 4, 3], |&u| (u % 2) as usize);
        let layout = || -> Vec<(usize, Vec<usize>)> {
            groups
                .iter()
                .map(|g| (g.owner, g.positions.clone()))
                .collect()
        };
        // Each owner answers its items times ten, in its own order.
        let replies = groups
            .iter()
            .map(|g| g.items.iter().map(|u| u * 10).collect())
            .collect();
        assert_eq!(
            reassemble(layout(), replies).unwrap(),
            vec![70, 20, 90, 40, 30]
        );
        assert_eq!(reassemble(vec![], Vec::<Vec<u32>>::new()).unwrap(), vec![]);
        // Owner 0 holds two items but answers one.
        match reassemble(layout(), vec![vec![70, 90, 30], vec![20]]) {
            Err(ServingError::Wire(msg)) => {
                assert!(
                    msg.contains("owner 0") && msg.contains("1 replies") && msg.contains("2 items"),
                    "error must name owner, got and wanted: {msg}"
                );
            }
            other => panic!("expected a typed Wire error, got {other:?}"),
        }
    }

    #[test]
    fn consistent_ring_balances_with_enough_vnodes() {
        let n = 8usize;
        let ring = HashRing::consistent(n, 128);
        let mut counts = vec![0usize; n];
        for u in 0..80_000u32 {
            counts[ring.route(u)] += 1;
        }
        for (s, &c) in counts.iter().enumerate() {
            assert!(
                c > 80_000 / n / 4,
                "shard {s} starved: {c} of 80000 users ({counts:?})"
            );
        }
    }

    #[test]
    fn consistent_scale_out_moves_a_minority_modulo_moves_most() {
        let users = 20_000u32;
        let moved =
            |a: &HashRing, b: &HashRing| (0..users).filter(|&u| a.route(u) != b.route(u)).count();
        let consistent = moved(&HashRing::consistent(4, 64), &HashRing::consistent(5, 64));
        let modulo = moved(&HashRing::modulo(4), &HashRing::modulo(5));
        // 4→5 consistent should move ≈ 1/5 of the users; modulo ≈ 4/5.
        assert!(
            consistent < users as usize / 2,
            "consistent 4→5 moved {consistent}/{users}"
        );
        assert!(
            consistent < modulo,
            "consistent ({consistent}) must move fewer users than modulo ({modulo})"
        );
    }

    #[test]
    fn consistent_shards_only_gain_from_new_nodes_on_scale_out() {
        // The defining property: a user that moves on N→M scale-out
        // moves *to one of the new shards* — surviving shards never
        // trade users among themselves.
        let old = HashRing::consistent(4, 64);
        let new = HashRing::consistent(6, 64);
        for u in 0..20_000u32 {
            let (a, b) = (old.route(u), new.route(u));
            if a != b {
                assert!(b >= 4, "user {u} moved {a}→{b}, not to a new shard");
            }
        }
    }

    #[test]
    fn slice_windows_partition_the_global_ring() {
        for global in [HashRing::modulo(4), HashRing::consistent(4, 64)] {
            let lo = HashRing::slice(global.clone(), 0, 2);
            let hi = HashRing::slice(global.clone(), 2, 2);
            assert!(lo.is_slice() && hi.is_slice());
            assert_eq!((lo.slice_base(), hi.slice_base()), (0, 2));
            for u in 0..5_000u32 {
                let g = global.route(u);
                // Exactly one window owns each user, at the re-indexed slot.
                match (lo.try_route(u), hi.try_route(u)) {
                    (Some(s), None) => assert_eq!(s, g),
                    (None, Some(s)) => assert_eq!(s + 2, g),
                    other => panic!("user {u}: windows disagree: {other:?}"),
                }
            }
        }
    }
}
