//! ANN index tuning: recall/latency/memory trade-offs for the neighbor
//! search that serves Eq. 11.
//!
//! The paper leans on Faiss for billion-scale neighbor identification;
//! this workspace serves searches from an exact flat index and an HNSW
//! graph (the frozen tier's HNSW mode at 100 k users is measured by
//! `repro bench-quality`, not here). This example measures, on one
//! synthetic user-embedding distribution:
//!
//! * exact recall and latency of the flat scan,
//! * HNSW at several `ef_search` settings.
//!
//! ```sh
//! cargo run --release --example index_tuning
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sccf::index::{FlatIndex, HnswConfig, HnswIndex, Metric};
use sccf::util::timer::Stopwatch;

/// Clustered embeddings (user vectors concentrate around interest groups).
fn clustered_vectors(rng: &mut StdRng, n: usize, d: usize, clusters: usize) -> Vec<f32> {
    let centers: Vec<Vec<f32>> = (0..clusters)
        .map(|_| (0..d).map(|_| rng.gen_range(-1.0..1.0f32)).collect())
        .collect();
    let mut out = Vec::with_capacity(n * d);
    for i in 0..n {
        let c = &centers[i % clusters];
        out.extend(c.iter().map(|&v| v + rng.gen_range(-0.25f32..0.25)));
    }
    out
}

fn recall(exact: &[u32], approx: &[u32]) -> f64 {
    if exact.is_empty() {
        return 1.0;
    }
    let hits = exact.iter().filter(|id| approx.contains(id)).count();
    hits as f64 / exact.len() as f64
}

fn main() {
    let mut rng = StdRng::seed_from_u64(42);
    let (n, d, k, n_queries) = (4000usize, 32usize, 100usize, 50usize);
    let data = clustered_vectors(&mut rng, n, d, 24);
    let queries: Vec<Vec<f32>> = (0..n_queries)
        .map(|_| (0..d).map(|_| rng.gen_range(-1.0..1.0f32)).collect())
        .collect();

    // ground truth + flat timing
    let mut flat = FlatIndex::new(d);
    for v in data.chunks_exact(d) {
        flat.add(v);
    }
    let sw = Stopwatch::start();
    let exact: Vec<Vec<u32>> = queries
        .iter()
        .map(|q| flat.search(q, k, None).iter().map(|s| s.id).collect())
        .collect();
    let flat_ms = sw.elapsed_ms() / n_queries as f64;
    println!("index        config          recall@{k}   ms/query   storage");
    println!(
        "flat         exact           1.0000      {flat_ms:.3}     {} KiB",
        n * d * 4 / 1024
    );

    // HNSW sweeps
    // ef below k is floored to k by the index, so sweep from k upward
    for ef in [100usize, 200, 400] {
        let mut hnsw = HnswIndex::new(
            d,
            Metric::Cosine,
            HnswConfig {
                ef_search: ef,
                seed: 42,
                ..Default::default()
            },
        );
        for row in data.chunks_exact(d) {
            hnsw.add(row);
        }
        let sw = Stopwatch::start();
        let mut r = 0.0;
        for (q, ex) in queries.iter().zip(&exact) {
            let got: Vec<u32> = hnsw.search(q, k, None).iter().map(|s| s.id).collect();
            r += recall(ex, &got);
        }
        let ms = sw.elapsed_ms() / n_queries as f64;
        println!(
            "hnsw         ef_search={ef:<4}  {:.4}      {ms:.3}     {} KiB + graph",
            r / n_queries as f64,
            n * d * 4 / 1024
        );
    }

    println!(
        "\nReading the table: HNSW buys recall with beam width (ef_search) \
         at logarithmic search cost; at a few thousand low-dimensional \
         vectors the exact flat scan is already sub-millisecond, which is \
         why it serves Eq. 11. The paper's Table III point (dense low-dim \
         search ≪ sparse set intersection) holds for every configuration \
         here."
    );
}
