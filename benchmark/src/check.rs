//! The correctness gate: what the benchmark verifies about the answers
//! it times, and the quality guard that keeps a faster search from
//! getting there by returning worse neighbours.
//!
//! * every slate is structurally valid ([`slate_problem`]);
//! * the fleet's histories after start-up equal the leave-one-out split
//!   rebuilt here through the public `sccf_data` API with
//!   `WorldSpec`'s recipe ([`check_histories`]) — so a later change to
//!   the recipe fails loudly instead of silently scoring HR against the
//!   wrong held-out items;
//! * the repo's pin discipline: the fleet and an in-process
//!   [`Shadow`] replica fed the same events hold byte-equal state and
//!   return bit-equal slates ([`pin_against_shadow`]).

use sccf_core::GlobalNeighborSnapshot;
use sccf_data::catalog::{ml1m_sim, Scale};
use sccf_data::synthetic::generate;
use sccf_data::LeaveOneOut;
use sccf_models::Fism;
use sccf_net::WorldSpec;
use sccf_serving::api::{RecQuery, RecResponse, ServingApi};
use sccf_serving::sharded::{RouterKind, ShardedConfig, ShardedEngine};

use crate::config;
use crate::fleet::Fleet;

/// `WorldSpec::split`'s recipe, restated over public API (the method
/// itself is private to `sccf-net`). [`check_histories`] is what keeps
/// the two from drifting apart unnoticed.
pub fn rebuild_split(spec: &WorldSpec) -> LeaveOneOut {
    let mut cfg = ml1m_sim(Scale::Quick);
    cfg.name = "fleet".to_string();
    cfg.n_users = spec.n_users;
    cfg.n_items = spec.n_items;
    cfg.n_categories = 4;
    cfg.mean_len = 8.0;
    cfg.min_len = 4;
    LeaveOneOut::split(&generate(&cfg, spec.seed).dataset)
}

/// The members' start-up histories must be the split's `train_plus_val`.
pub fn check_histories(split: &LeaveOneOut, histories: &[Vec<u32>]) -> Result<(), String> {
    if split.n_users() != histories.len() {
        return Err(format!(
            "split has {} users, the fleet serves {}",
            split.n_users(),
            histories.len()
        ));
    }
    match (0..histories.len()).find(|&u| split.train_plus_val(u as u32) != histories[u]) {
        None => Ok(()),
        Some(u) => Err(format!(
            "user {u}: the fleet's start-up history differs from the rebuilt split's \
             train_plus_val — WorldSpec's recipe changed; hr20 would score against the \
             wrong held-out items"
        )),
    }
}

/// Why a slate is not a valid answer to a top-`k` query, if it is not.
pub fn slate_problem(resp: &RecResponse, k: usize, n_items: usize) -> Option<String> {
    let items = &resp.items;
    if items.is_empty() {
        return Some("empty slate".into());
    }
    if items.len() > k {
        return Some(format!("{} items for a top-{k} query", items.len()));
    }
    for (i, s) in items.iter().enumerate() {
        if s.id as usize >= n_items {
            return Some(format!("item {} outside the catalog", s.id));
        }
        if !s.score.is_finite() {
            return Some(format!("item {} has score {}", s.id, s.score));
        }
        if i > 0 && items[i - 1].score < s.score {
            return Some("scores are not descending".into());
        }
        if items[..i].iter().any(|p| p.id == s.id) {
            return Some(format!("item {} appears twice", s.id));
        }
    }
    None
}

pub fn slate_bits(resp: &RecResponse) -> Vec<(u32, u32)> {
    resp.items
        .iter()
        .map(|s| (s.id, s.score.to_bits()))
        .collect()
}

/// HR@k of the held-out test item over the first `n` users that have
/// one, asked of the fleet. Returns `(hit ratio, users asked, failed)`.
pub fn hit_ratio(
    fleet: &mut Fleet,
    split: &LeaveOneOut,
    n: usize,
    k: usize,
) -> Result<(f64, usize, u64), String> {
    let users: Vec<u32> = split.test_users().into_iter().take(n).collect();
    let query = RecQuery::top(k);
    let n_items = fleet.spec.n_items;
    let (mut hits, mut failed) = (0usize, 0u64);
    for chunk in users.chunks(100) {
        let slates = fleet
            .router()
            .recommend_many(chunk, &query)
            .map_err(|e| format!("hr{k}: {e}"))?;
        for (&user, slate) in chunk.iter().zip(&slates) {
            if slate_problem(slate, k, n_items).is_some() {
                failed += 1;
            }
            let held_out = split.test_item(user).expect("test_users have a test item");
            hits += usize::from(slate.items.iter().any(|s| s.id == held_out));
        }
    }
    if users.is_empty() {
        return Err("the world has no user with a held-out item".into());
    }
    Ok((hits as f64 / users.len() as f64, users.len(), failed))
}

/// The fleet's in-process twin: the same world as two shard views in
/// one process, the same frozen tier installed. By the repo's pinned
/// contract (`tests/fleet.rs`) it is bit-identical to the fleet when fed
/// the same events — the reference for the pin check, and in a traced
/// run the replica the per-layer probes time public calls on.
pub struct Shadow {
    pub engine: ShardedEngine<Fism>,
    /// `WorldSpec::build` wall time, measured while building the twin.
    pub world_build_s: f64,
}

impl Shadow {
    pub fn build(spec: &WorldSpec, model_bytes: &[u8], tier_bytes: &[u8]) -> Result<Self, String> {
        let t = std::time::Instant::now();
        let world = spec.build(Some(model_bytes))?;
        let world_build_s = t.elapsed().as_secs_f64();
        let mut engine = ShardedEngine::try_new(
            world.sccf,
            world.histories,
            ShardedConfig {
                n_shards: config::MEMBERS * config::SHARDS_PER_MEMBER,
                queue_capacity: 256,
                router: RouterKind::Modulo,
            },
        )
        .map_err(|e| format!("building the shadow replica: {e}"))?;
        let tier = GlobalNeighborSnapshot::decode(tier_bytes)
            .map_err(|e| format!("decoding the tier for the shadow replica: {e:?}"))?;
        engine
            .install_global_tier(tier)
            .map_err(|e| format!("installing the tier on the shadow replica: {e}"))?;
        Ok(Self {
            engine,
            world_build_s,
        })
    }

    pub fn ingest(&mut self, events: &[(u32, u32)]) -> Result<(), String> {
        self.engine
            .ingest_batch(events)
            .and_then(|_| self.engine.flush())
            .map_err(|e| format!("shadow ingest: {e}"))
    }
}

/// Byte-equal state and bit-equal slates for `users`, fleet vs shadow.
/// Returns the number of mismatches found (0 = pinned), naming each on
/// stderr. `corrupt_expected` flips one expected score bit first — the
/// self-test proving a mismatch is caught and fails the run.
pub fn pin_against_shadow(
    fleet: &mut Fleet,
    shadow: &mut Shadow,
    users: &[u32],
    corrupt_expected: bool,
) -> Result<u64, String> {
    let mut mismatches = 0u64;
    fleet
        .router()
        .flush()
        .map_err(|e| format!("pin: fleet flush: {e}"))?;
    let fleet_state = fleet
        .router()
        .snapshot_state()
        .map_err(|e| format!("pin: fleet snapshot: {e}"))?;
    let shadow_state = shadow
        .engine
        .snapshot_state()
        .map_err(|e| format!("pin: shadow snapshot: {e}"))?;
    if fleet_state != shadow_state {
        eprintln!(
            "FAIL pin: fleet snapshot ({} B) differs from the in-process reference ({} B)",
            fleet_state.len(),
            shadow_state.len()
        );
        mismatches += 1;
    }
    let query = RecQuery::top(config::SLATE_K);
    for (i, &user) in users.iter().enumerate() {
        let got = fleet
            .router()
            .try_recommend(user, &query)
            .map_err(|e| format!("pin: fleet recommend: {e}"))?;
        let want = shadow
            .engine
            .try_recommend(user, &query)
            .map_err(|e| format!("pin: shadow recommend: {e}"))?;
        let mut want_bits = slate_bits(&want);
        if corrupt_expected && i == 0 {
            if let Some(first) = want_bits.first_mut() {
                first.1 ^= 1;
            }
        }
        if slate_bits(&got) != want_bits {
            eprintln!("FAIL pin: user {user}'s slate differs from the in-process reference");
            mismatches += 1;
        }
    }
    Ok(mismatches)
}
