//! End-to-end real-time step benchmark: the full per-event pipeline
//! (infer → index update → neighbor search) for FISM and SASRec backends,
//! plus the fused recommend call — the operations Table III and the
//! production deployment (§IV-F) care about.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use sccf_bench::harness::{serving_sccf_config, serving_world, ServingWorld, WorldShape};
use sccf_core::{CandidateSource, Exclusion, RealtimeEngine, Sccf};
use sccf_data::LeaveOneOut;
use sccf_models::{InductiveUiModel, SasRec, SasRecConfig, TrainConfig};

/// 300 × 300 `ml1m-sim` with a d=32 FISM backend.
fn world() -> ServingWorld {
    let shape = WorldShape {
        n_users: 300,
        n_items: 300,
        n_categories: 18,
        mean_len: 48.0,
        min_len: 8,
        dim: 32,
        epochs: 2,
    };
    serving_world(&shape, 1)
}

fn engine_for<M: InductiveUiModel>(
    model: M,
    split: &LeaveOneOut,
    histories: Vec<Vec<u32>>,
) -> RealtimeEngine<M> {
    let mut cfg = serving_sccf_config(4, 42);
    cfg.integrator.epochs = 3;
    let mut sccf = Sccf::build(model, split, cfg);
    sccf.refresh_for_test(split);
    RealtimeEngine::new(sccf, histories)
}

fn bench_event_fism(c: &mut Criterion) {
    let w = world();
    let mut engine = engine_for(w.fism, &w.split, w.histories);
    let mut i = 0u32;
    c.bench_function("realtime_event_fism_d32", |bench| {
        bench.iter(|| {
            let user = i % 300;
            let item = (i * 7) % 300;
            i += 1;
            black_box(engine.try_process_event(user, item).expect("valid ids"))
        });
    });
}

fn bench_event_sasrec(c: &mut Criterion) {
    let ServingWorld {
        split, histories, ..
    } = world();
    let sasrec = SasRec::train(
        &split,
        &SasRecConfig {
            train: TrainConfig {
                dim: 32,
                epochs: 1,
                ..Default::default()
            },
            max_len: 50,
            ..Default::default()
        },
    );
    let mut engine = engine_for(sasrec, &split, histories);
    let mut i = 0u32;
    c.bench_function("realtime_event_sasrec_d32_L50", |bench| {
        bench.iter(|| {
            let user = i % 300;
            let item = (i * 7) % 300;
            i += 1;
            black_box(engine.try_process_event(user, item).expect("valid ids"))
        });
    });
}

fn bench_fused_recommend(c: &mut Criterion) {
    let w = world();
    let mut engine = engine_for(w.fism, &w.split, w.histories);
    c.bench_function("sccf_recommend_top10", |bench| {
        bench.iter(|| {
            black_box(
                engine
                    .recommend_query(5, 10, CandidateSource::Configured, &Exclusion::History)
                    .expect("valid user"),
            )
        });
    });
}

criterion_group!(
    benches,
    bench_event_fism,
    bench_event_sasrec,
    bench_fused_recommend
);
criterion_main!(benches);
