//! The benchmark's own seeded load generator.
//!
//! Same recipe as `sccf_bench::workload` — a power-law head of users
//! producing most events, power-law item popularity, via the
//! inverse-CDF trick `rank = n · r^skew` — but owned here, so the
//! benchmark does not depend on a crate ROADMAP item 2 is about to
//! split, and driven by nothing but `--seed`. The servers only ever see
//! the generated `(user, item)` pairs and user ids, never the seed.
//!
//! Every op a workload sends is folded into an `ops_digest`, every
//! slate it receives into a `slate_digest` (both CRC32): two runs with
//! one seed — or a parent and a change — prove with two numbers that
//! they sent the same input and got the same answers.

use sccf_util::checksum::Crc32;
use sccf_util::rng::splitmix64;

/// Heavier than uniform, lighter than a single hot key: with skew 2 the
/// top quarter of ranks draws half of all events.
pub const SKEW: f64 = 2.0;

/// One independent random stream per `(seed, stream)` pair, so adding a
/// consumer never perturbs the inputs of an existing one.
pub struct Gen {
    state: u64,
}

impl Gen {
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut state = seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F);
        // Decorrelate neighbouring seeds before the first draw.
        splitmix64(&mut state);
        Self { state }
    }

    fn unit(&mut self) -> f64 {
        (splitmix64(&mut self.state) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn uniform(&mut self, n: u32) -> u32 {
        ((self.unit() * f64::from(n)) as u32).min(n - 1)
    }

    /// Power-law rank in `0..n`: low ranks are hot.
    pub fn popular(&mut self, n: u32) -> u32 {
        ((f64::from(n) * self.unit().powf(SKEW)) as u32).min(n - 1)
    }

    /// `count` events, users and items both power-law.
    pub fn events(&mut self, n_users: u32, n_items: u32, count: usize) -> Vec<(u32, u32)> {
        (0..count)
            .map(|_| (self.popular(n_users), self.popular(n_items)))
            .collect()
    }
}

/// Streams a workload may draw from; the numbers are part of the input
/// definition — changing one changes every digest.
pub mod streams {
    pub const WARMUP: u64 = 1;
    pub const MEASURED: u64 = 2;
    pub const SAMPLE_USERS: u64 = 3;
    pub const PREFIX: u64 = 4;
}

/// Running digest of everything sent to the fleet.
pub struct OpsDigest(Crc32);

impl OpsDigest {
    pub fn new() -> Self {
        Self(Crc32::new())
    }

    pub fn events(&mut self, events: &[(u32, u32)]) {
        for &(user, item) in events {
            self.0.update(b"e");
            self.0.update(&user.to_le_bytes());
            self.0.update(&item.to_le_bytes());
        }
    }

    pub fn recommends(&mut self, users: &[u32], k: usize) {
        for &user in users {
            self.0.update(&[b'r', k as u8]);
            self.0.update(&user.to_le_bytes());
        }
    }

    /// A scripted control action (kill, checkpoint, …) — part of the
    /// input sequence too.
    pub fn control(&mut self, tag: &str) {
        self.0.update(b"c");
        self.0.update(tag.as_bytes());
    }

    pub fn finish(&self) -> u32 {
        self.0.finish()
    }
}

/// Running digest of every `(item id, score bits)` received.
pub struct SlateDigest(Crc32);

impl SlateDigest {
    pub fn new() -> Self {
        Self(Crc32::new())
    }

    pub fn slate(&mut self, user: u32, items: &[sccf_util::topk::Scored]) {
        self.0.update(&user.to_le_bytes());
        for s in items {
            self.0.update(&s.id.to_le_bytes());
            self.0.update(&s.score.to_bits().to_le_bytes());
        }
    }

    pub fn finish(&self) -> u32 {
        self.0.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_ops_other_seed_other_ops() {
        let a = Gen::new(11, streams::MEASURED).events(500, 300, 1_000);
        let b = Gen::new(11, streams::MEASURED).events(500, 300, 1_000);
        let c = Gen::new(12, streams::MEASURED).events(500, 300, 1_000);
        let d = Gen::new(11, streams::WARMUP).events(500, 300, 1_000);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        let digest = |ev: &[(u32, u32)]| {
            let mut dg = OpsDigest::new();
            dg.events(ev);
            dg.finish()
        };
        assert_eq!(digest(&a), digest(&b));
        assert_ne!(digest(&a), digest(&c));
    }

    #[test]
    fn ids_stay_in_range_and_the_head_is_heavy() {
        let mut g = Gen::new(5, 0);
        let ev = g.events(64, 32, 20_000);
        assert!(ev.iter().all(|&(u, i)| u < 64 && i < 32));
        let head = ev.iter().filter(|&&(u, _)| u < 16).count();
        // P(rank < n/4) = (1/4)^(1/2) = 1/2.
        assert!((8_000..12_000).contains(&head), "head carried {head}/20000");
        assert!((0..1000).all(|_| g.uniform(7) < 7));
    }
}
