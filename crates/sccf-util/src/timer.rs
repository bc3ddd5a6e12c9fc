//! Wall-clock timing for the real-time experiments.
//!
//! Table III of the paper splits per-event latency into *inferring* time
//! (computing the fresh user representation) and *identifying* time
//! (finding the β nearest users). [`Stopwatch`] measures one leg;
//! [`TimingStats`] is the one latency recorder: Welford moments for the
//! mean the paper's table shows, plus fixed log buckets for the
//! percentiles a serving SLO is written against. Both halves merge
//! exactly, so per-shard recorders fold into one fleet-wide recorder.

use std::time::Instant;

use crate::stats::OnlineStats;

/// Measures one interval with `Instant`.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    pub fn start() -> Self {
        Self {
            start: Instant::now(),
        }
    }

    /// Elapsed milliseconds as `f64`.
    pub fn elapsed_ms(&self) -> f64 {
        self.start.elapsed().as_secs_f64() * 1e3
    }

    /// Restart the stopwatch and return the elapsed milliseconds of the lap.
    pub fn lap_ms(&mut self) -> f64 {
        let ms = self.elapsed_ms();
        self.start = Instant::now();
        ms
    }
}

/// Sub-buckets per power of two: the top `SUB_BITS` mantissa bits of a
/// sample pick its bucket inside its octave, so a bucket is at most
/// 1/16 of its lower edge wide.
const SUB_BITS: u32 = 4;
/// `ms.to_bits() >> KEY_SHIFT` = `(biased exponent << SUB_BITS) |
/// top mantissa bits` — monotone in `ms` for every positive `f64`.
const KEY_SHIFT: u32 = 52 - SUB_BITS;
/// Key of 2^-20 ms (≈ 1 ns), the lower edge of bucket 0's own range.
const FIRST_KEY: u64 = (1023 - 20) << SUB_BITS;
/// Octaves with their own buckets: 2^-20 ms up to 2^14 ms (≈ 16 s).
const OCTAVES: usize = 34;
/// Buckets in every [`TimingStats`]. The layout is fixed, so any two
/// recorders — on two shards or two processes — merge bucket-wise.
pub const TIMING_BUCKETS: usize = OCTAVES << SUB_BITS;

/// The bucket a sample falls in, from its bit pattern alone (no `ln`).
/// Zero, negatives and NaN land in bucket 0, everything above the top
/// edge in the last bucket.
#[inline]
fn bucket_of(ms: f64) -> usize {
    if ms > 0.0 {
        let key = (ms.to_bits() >> KEY_SHIFT).saturating_sub(FIRST_KEY);
        key.min(TIMING_BUCKETS as u64 - 1) as usize
    } else {
        0
    }
}

/// Exclusive upper edge of bucket `b` in ms (`+∞` for the last one).
fn upper_edge(b: usize) -> f64 {
    if b + 1 >= TIMING_BUCKETS {
        f64::INFINITY
    } else {
        f64::from_bits((FIRST_KEY + b as u64 + 1) << KEY_SHIFT)
    }
}

/// Aggregate of many measured intervals (in milliseconds): the Welford
/// mean / max and log-bucketed quantiles. It lives in every shard
/// worker's `EngineTimings` and is paid twice per ingested event, so
/// [`TimingStats::record_ms`] never allocates. The buckets are one
/// boxed array allocated with the recorder: kept inline, every
/// by-value move of a `ServingStats` copied them through the stack,
/// which cost each shard server ≈ 0.2 MiB of peak RSS.
#[derive(Debug, Clone)]
pub struct TimingStats {
    stats: OnlineStats,
    buckets: Box<[u64; TIMING_BUCKETS]>,
}

impl Default for TimingStats {
    fn default() -> Self {
        Self {
            stats: OnlineStats::new(),
            buckets: Box::new([0; TIMING_BUCKETS]),
        }
    }
}

impl TimingStats {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn record_ms(&mut self, ms: f64) {
        self.stats.push(ms);
        self.buckets[bucket_of(ms)] += 1;
    }

    pub fn count(&self) -> u64 {
        self.stats.count()
    }

    pub fn mean_ms(&self) -> f64 {
        self.stats.mean()
    }

    pub fn max_ms(&self) -> f64 {
        if self.stats.count() == 0 {
            0.0
        } else {
            self.stats.max()
        }
    }

    /// Value (ms) at quantile `q ∈ [0, 1]`: the upper edge of the first
    /// bucket whose cumulative count reaches `⌈q·count⌉`, capped at the
    /// exact maximum. For a sample `x` in 2^-20 ms .. 2^14 ms the answer
    /// lies in `[x, x · 17/16]`, where `x` is the sample of that rank;
    /// `q = 0` and `q = 1` are the exact extremes. 0 when empty. A
    /// function of the bucket counts and the extremes only, so merged
    /// recorders answer bit-identically to one recorder fed every sample.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        if q <= 0.0 {
            return self.stats.min();
        }
        if q >= 1.0 {
            return self.stats.max();
        }
        let rank = ((q * n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (b, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return upper_edge(b).min(self.stats.max());
            }
        }
        self.stats.max()
    }

    pub fn p50_ms(&self) -> f64 {
        self.quantile_ms(0.50)
    }

    pub fn p95_ms(&self) -> f64 {
        self.quantile_ms(0.95)
    }

    pub fn p99_ms(&self) -> f64 {
        self.quantile_ms(0.99)
    }

    /// Fold another recorder in: Welford merge plus bucket sums.
    pub fn merge(&mut self, other: &TimingStats) {
        self.stats.merge(&other.stats);
        for (a, &b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }

    /// The raw state — the Welford accumulator (see
    /// [`OnlineStats::parts`]) and the bucket counts. With
    /// [`TimingStats::from_parts`] this round-trips a recorder exactly
    /// across a process boundary.
    pub fn parts(&self) -> (&OnlineStats, &[u64; TIMING_BUCKETS]) {
        (&self.stats, &self.buckets)
    }

    /// Rebuild from [`TimingStats::parts`]. Trusted as-is: a decoder
    /// checks that the bucket counts sum to the accumulator's count.
    pub fn from_parts(stats: OnlineStats, buckets: Box<[u64; TIMING_BUCKETS]>) -> Self {
        Self { stats, buckets }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_measures_nonnegative() {
        let sw = Stopwatch::start();
        let ms = sw.elapsed_ms();
        assert!(ms >= 0.0);
    }

    #[test]
    fn lap_resets() {
        let mut sw = Stopwatch::start();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let first = sw.lap_ms();
        assert!(first >= 1.0);
        let second = sw.elapsed_ms();
        assert!(second < first + 1.0);
    }

    #[test]
    fn timing_stats_aggregate() {
        let mut ts = TimingStats::new();
        assert_eq!((ts.p50_ms(), ts.p99_ms(), ts.max_ms()), (0.0, 0.0, 0.0));
        ts.record_ms(1.0);
        ts.record_ms(3.0);
        assert_eq!(ts.count(), 2);
        assert!((ts.mean_ms() - 2.0).abs() < 1e-12);
        assert_eq!(ts.max_ms(), 3.0);
        assert_eq!(ts.quantile_ms(0.0), 1.0);
        ts.record_ms(1e7); // far beyond the top edge: the exact maximum
        assert_eq!(ts.p99_ms(), 1e7);
    }

    #[test]
    fn buckets_tile_the_range_from_the_bit_pattern() {
        // Each bucket's upper edge is the next bucket's first sample,
        // and the edges are ≤ 1/16 apart relative to the lower one.
        for b in 0..TIMING_BUCKETS - 1 {
            let edge = upper_edge(b);
            assert_eq!(bucket_of(edge), b + 1, "edge of {b}");
            assert_eq!(bucket_of(f64::from_bits(edge.to_bits() - 1)), b);
            if b > 0 {
                assert!(edge <= upper_edge(b - 1) * (1.0 + 1.0 / 16.0));
            }
        }
        for (ms, b) in [
            (0.0, 0),
            (-1.0, 0),
            (f64::NAN, 0),
            (1e-12, 0),
            (1e9, TIMING_BUCKETS - 1),
            (f64::INFINITY, TIMING_BUCKETS - 1),
        ] {
            assert_eq!(bucket_of(ms), b, "{ms}");
        }
    }
}
