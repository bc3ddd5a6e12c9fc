//! Two-tier cross-shard neighborhoods demo: recover the Eq. 11 recall
//! a sharded fleet silently gives up — **without** giving up
//! shard-local writes.
//!
//! A user-partitioned fleet computes each neighborhood from the
//! shard's own users only (~1/N of the population). This example
//! measures that loss directly — the overlap between every user's
//! in-shard neighborhood and the full-population one — then installs
//! the frozen global tier (`refresh_global_tier`) and measures again.
//! With a fresh snapshot, the merged two-tier neighborhoods are
//! *identical* to the N=1 engine's, asserted bit-for-bit as the
//! example runs; after more traffic, the frozen tier goes stale and a
//! single refresh catches it back up.
//!
//! ```sh
//! cargo run --release --example cross_shard_quality
//! ```

use sccf::core::{
    FrozenTierMode, IntegratorConfig, RealtimeEngine, Sccf, SccfConfig, UserBasedConfig,
};
use sccf::data::catalog::{ml1m_sim, Scale};
use sccf::data::synthetic::generate;
use sccf::data::LeaveOneOut;
use sccf::models::{Fism, FismConfig, TrainConfig};
use sccf::serving::{RecQuery, RouterKind, ServingApi, ShardedConfig, ShardedEngine};

fn main() {
    // --- world + deterministic framework builds -------------------------
    let mut cfg = ml1m_sim(Scale::Quick);
    cfg.n_users = 600;
    cfg.n_items = 300;
    let gen = generate(&cfg, 29);
    let split = LeaveOneOut::split(&gen.dataset);
    let n_users = split.n_users() as u32;
    println!("training FISM on {} users ...", split.n_users());
    let build = || {
        let fism = Fism::train(
            &split,
            &FismConfig {
                train: TrainConfig {
                    dim: 16,
                    epochs: 3,
                    seed: 11,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        let mut sccf = Sccf::build(
            fism,
            &split,
            SccfConfig {
                user_based: UserBasedConfig {
                    beta: 30,
                    recent_window: 15,
                },
                candidate_n: 40,
                integrator: IntegratorConfig {
                    epochs: 3,
                    seed: 11,
                    ..Default::default()
                },
                threads: 1,
                ui_ann: None,
                frozen_tier: FrozenTierMode::Flat,
            },
        );
        // Both engines must start from the same per-user state: the
        // plain engine keeps build-time (train-only) index rows unless
        // refreshed, while the sharded engine derives everything from
        // the handed-in train+val histories.
        sccf.refresh_for_test(&split);
        sccf
    };
    let histories: Vec<Vec<u32>> = (0..n_users).map(|u| split.train_plus_val(u)).collect();

    // The full-population reference: the plain single-writer engine.
    let mut reference = RealtimeEngine::new(build(), histories.clone());
    // The fleet under test: 4 shards, each owning ~1/4 of the users.
    let shard_cfg = ShardedConfig {
        n_shards: 4,
        queue_capacity: 256,
        router: RouterKind::Modulo,
    };
    let mut fleet =
        ShardedEngine::try_new(build(), histories, shard_cfg).expect("valid shard config");

    // --- 1. the in-shard recall loss ------------------------------------
    let probe: Vec<u32> = (0..n_users).step_by(7).collect();
    let overlap = |fleet: &mut ShardedEngine<Fism>, reference: &mut RealtimeEngine<Fism>| {
        let mut inter = 0usize;
        let mut total = 0usize;
        for &u in &probe {
            let full = reference.neighbors_of(u).expect("valid user");
            let got = fleet.neighbors_of(u).expect("valid user");
            total += full.len();
            inter += got
                .iter()
                .filter(|s| full.iter().any(|f| f.id == s.id))
                .count();
        }
        inter as f64 / total as f64
    };
    let local_recall = overlap(&mut fleet, &mut reference);
    println!(
        "shard-local neighborhoods: {:.1}% of the true β-neighborhood reachable \
         (4 shards ⇒ each search sees ~25% of the population)",
        100.0 * local_recall
    );

    // --- 2. install the frozen global tier ------------------------------
    let report = fleet.refresh_global_tier().expect("tier refresh");
    println!(
        "refreshed global tier: epoch {}, {} users exported in {} batch(es), {:.1} ms",
        report.epoch, report.users, report.batches, report.duration_ms
    );
    let two_tier_recall = overlap(&mut fleet, &mut reference);
    println!(
        "two-tier neighborhoods:   {:.1}% of the true β-neighborhood reachable",
        100.0 * two_tier_recall
    );
    assert!(
        two_tier_recall >= local_recall,
        "the global tier must not lose neighbors"
    );
    // With a fresh snapshot the merged search is *exactly* the plain
    // engine's Eq. 11 — same ids, same float bits, same order.
    for &u in &probe {
        let full = reference.neighbors_of(u).expect("valid user");
        let got = fleet.neighbors_of(u).expect("valid user");
        assert_eq!(full.len(), got.len(), "user {u}: neighborhood size");
        for (a, b) in full.iter().zip(&got) {
            assert_eq!(a.id, b.id, "user {u}: neighbor ids must match");
            assert_eq!(
                a.score.to_bits(),
                b.score.to_bits(),
                "user {u}: similarity bits must match"
            );
        }
    }
    println!("fresh snapshot ⇒ neighbor sets bit-identical to the N=1 engine ✓");

    // --- 3. staleness and the refresh cadence ---------------------------
    // Traffic moves user vectors; the shard-local deltas track it
    // instantly, the frozen tier lags until the next refresh.
    for k in 0..600u32 {
        let (u, i) = (k % n_users, (k * 13 + 5) % split.n_items() as u32);
        reference.try_ingest(u, i).expect("ids in range");
        fleet.try_ingest(u, i).expect("ids in range");
    }
    fleet.flush().expect("barrier");
    let stale = fleet.serving_stats().expect("stats");
    println!(
        "after 600 events: tier epoch {} is {} events stale (coverage {} users)",
        stale.neighborhood.epoch,
        stale.neighborhood.events_since_refresh,
        stale.neighborhood.users_covered
    );
    let stale_recall = overlap(&mut fleet, &mut reference);
    fleet.refresh_global_tier().expect("tier refresh");
    let fresh_recall = overlap(&mut fleet, &mut reference);
    println!(
        "stale-tier overlap {:.1}% → post-refresh overlap {:.1}%",
        100.0 * stale_recall,
        100.0 * fresh_recall
    );
    assert!(
        (fresh_recall - 1.0).abs() < 1e-9,
        "refresh restores exact recall"
    );

    // Recommendations flow through the merged neighborhoods end to end.
    let slate = fleet
        .try_recommend(0, &RecQuery::top(5))
        .expect("valid user");
    println!(
        "top-5 for user 0 through the two-tier path: {:?}",
        slate.ids()
    );
    fleet.shutdown();
    println!("done.");
}
